// Package mondrian implements LeFevre et al.'s Mondrian multidimensional
// k-anonymity algorithm: a greedy top-down partitioning of the record space
// that recursively splits the partition along the quasi-identifier dimension
// with the widest normalized range, at the median, as long as every resulting
// partition still satisfies the privacy criteria. Partitions are then recoded
// per group (multidimensional recoding), which loses far less information
// than full-domain recoding at the same k.
//
// The package supports both strict partitioning (records with equal values on
// the split dimension stay together) and relaxed partitioning (ties may be
// divided between the halves), and accepts additional privacy criteria such
// as l-diversity or t-closeness that gate every split.
//
// The implementation operates on the dataset package's cached columnar views:
// numeric dimensions are dense-ranked once per run from the parse-once
// FloatColumns, so a split orders its partition by sorting integer
// (rank, row) keys instead of comparing values, and categorical dimensions
// read dictionary-encoded
// CodedColumns, so the recursion never re-parses or re-hashes cell strings.
// Independent subtrees of the recursion run on a bounded worker pool (see
// Config.Workers); the result is deterministic regardless of worker count
// because every partition is split identically and final groups are ordered
// by their smallest member row index.
//
// Runs are cancelable: AnonymizeContext threads a context.Context through the
// recursion, every worker polls it at subtree entry, and a canceled run
// drains the pool and returns ctx.Err() without publishing a partial table.
// Request-scoped callers (the ppdp HTTP service) rely on this to shed
// abandoned work.
package mondrian

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/generalize"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/privacy"
)

// Common errors. Each carries its engine class (engine.ErrConfig or
// engine.ErrUnsatisfiable), so errors.Is matches either.
var (
	// ErrConfig is returned for invalid configurations.
	ErrConfig = engine.ConfigError(errors.New("mondrian: invalid configuration"))
	// ErrUnsatisfiable is returned when even the unsplit table violates the
	// privacy criteria (for example k larger than the table).
	ErrUnsatisfiable = engine.UnsatisfiableError(errors.New("mondrian: privacy criteria cannot be satisfied even without splitting"))
)

// parallelThreshold is the minimum partition size worth dispatching to
// another worker; smaller subtrees recurse inline because the goroutine
// handoff would cost more than the work itself.
const parallelThreshold = 512

// Config controls a Mondrian run.
type Config struct {
	// K is the required minimum partition size.
	K int
	// QuasiIdentifiers lists the attributes to partition on; when empty the
	// schema's quasi-identifier columns are used.
	QuasiIdentifiers []string
	// Hierarchies is optional; when present, categorical partitions are
	// recoded to the lowest common generalization instead of a value set.
	Hierarchies *hierarchy.Set
	// Strict selects strict partitioning: records sharing a value on the
	// split dimension are never separated. Relaxed partitioning (the
	// default) may split ties and generally yields smaller partitions.
	Strict bool
	// Extra lists additional privacy criteria every partition must satisfy.
	Extra []privacy.Criterion
	// Workers bounds the number of concurrent partition workers. Zero uses
	// runtime.GOMAXPROCS(0); 1 forces a fully sequential run. The released
	// table, groups and summaries are identical for every worker count.
	Workers int
	// Progress, when non-nil, receives (done, total) every time a partition
	// subtree is finalized — the same unit of work the context is polled at.
	// Done counts the rows whose final partition is settled and total is the
	// table size; a successful run ends with a (total, total) event. Calls
	// are made under the runner's group mutex, so the stream is serialized
	// and monotone for every worker count.
	Progress func(done, total int)
}

// Result describes the outcome of a Mondrian run.
type Result struct {
	// Table is the released, multidimensionally recoded table.
	Table *dataset.Table
	// Groups are the final partitions as row-index sets into the input
	// table, ordered by their smallest member row index.
	Groups [][]int
	// Summaries are the per-group released quasi-identifier values.
	Summaries []generalize.GroupSummary
	// Splits is the number of successful splits performed.
	Splits int
}

// Anonymize runs Mondrian over t with no cancellation; it is shorthand for
// AnonymizeContext with a background context.
func Anonymize(t *dataset.Table, cfg Config) (*Result, error) {
	return AnonymizeContext(context.Background(), t, cfg)
}

// AnonymizeContext runs Mondrian over t. The context is observed by every
// partition worker: when it is canceled (or its deadline passes) the
// recursion stops splitting, in-flight workers drain, and the run returns
// ctx.Err() instead of a release. Cancellation never publishes a partial
// table.
func AnonymizeContext(ctx context.Context, t *dataset.Table, cfg Config) (*Result, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("%w: k = %d", ErrConfig, cfg.K)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("%w: workers = %d", ErrConfig, cfg.Workers)
	}
	qi := cfg.QuasiIdentifiers
	if len(qi) == 0 {
		qi = t.Schema().QuasiIdentifierNames()
	}
	if len(qi) == 0 {
		return nil, fmt.Errorf("%w: no quasi-identifier attributes", ErrConfig)
	}
	run, err := newRunner(ctx, t, cfg, qi)
	if err != nil {
		return nil, err
	}

	all := make([]int, t.Len())
	for i := range all {
		all[i] = i
	}
	if ok, err := run.allowable(all); err != nil {
		return nil, err
	} else if !ok {
		return nil, fmt.Errorf("%w (k=%d, %d rows)", ErrUnsatisfiable, cfg.K, t.Len())
	}

	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The calling goroutine is itself a worker; the semaphore only meters the
	// extra ones.
	run.sem = make(chan struct{}, workers-1)
	run.partition(all, run.newScratch())
	run.wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mondrian: %w", err)
	}

	// Deterministic final ordering independent of worker scheduling: groups
	// are disjoint, so their smallest member row index is a total order.
	mins := make([]int, len(run.groups))
	for i, g := range run.groups {
		mins[i] = minRow(g)
	}
	sort.Sort(&groupsByMin{mins: mins, groups: run.groups})

	released, summaries, err := generalize.RecodeGroups(t, qi, cfg.Hierarchies, run.groups)
	if err != nil {
		return nil, err
	}
	run.report(t.Len(), t.Len())
	return &Result{
		Table:     released,
		Groups:    run.groups,
		Summaries: summaries,
		Splits:    int(run.splits.Load()),
	}, nil
}

// minRow returns the smallest row index of a non-empty group.
func minRow(rows []int) int {
	lo := rows[0]
	for _, r := range rows[1:] {
		lo = min(lo, r)
	}
	return lo
}

// groupsByMin sorts groups by their precomputed smallest member row index.
type groupsByMin struct {
	mins   []int
	groups [][]int
}

func (s *groupsByMin) Len() int           { return len(s.groups) }
func (s *groupsByMin) Less(i, j int) bool { return s.mins[i] < s.mins[j] }
func (s *groupsByMin) Swap(i, j int) {
	s.mins[i], s.mins[j] = s.mins[j], s.mins[i]
	s.groups[i], s.groups[j] = s.groups[j], s.groups[i]
}

// newRunner resolves the quasi-identifier columns of t and builds the
// columnar views the recursion reads.
func newRunner(ctx context.Context, t *dataset.Table, cfg Config, qi []string) (*runner, error) {
	if t.Len() > math.MaxInt32 {
		// Splits pack a row index and a rank into one 64-bit sort key.
		return nil, fmt.Errorf("%w: %d rows exceed the %d-row limit", ErrConfig, t.Len(), math.MaxInt32)
	}
	report := cfg.Progress
	if report == nil {
		report = func(int, int) {}
	}
	run := &runner{
		ctx:        ctx,
		t:          t,
		cfg:        cfg,
		report:     report,
		qi:         qi,
		cols:       make([]int, len(qi)),
		numeric:    make([]bool, len(qi)),
		domainSpan: make([]float64, len(qi)),
		ranks:      make([][]int32, len(qi)),
		rankVals:   make([][]float64, len(qi)),
		codes:      make([]*dataset.CodedColumn, len(qi)),
		catFloat:   make([][]float64, len(qi)),
		catIsNum:   make([][]bool, len(qi)),
	}
	for i, a := range qi {
		c, err := t.Schema().Index(a)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrConfig, err)
		}
		run.cols[i] = c
		attr, _ := t.Schema().ByName(a)
		run.numeric[i] = attr.Type == dataset.Numeric
	}
	if err := run.buildColumns(); err != nil {
		return nil, err
	}
	return run, nil
}

// runner carries the recursion state shared by all partition workers.
type runner struct {
	ctx        context.Context
	t          *dataset.Table
	cfg        Config
	qi         []string
	cols       []int
	numeric    []bool
	domainSpan []float64

	// Columnar views of the quasi-identifier dimensions, built once before
	// the recursion. A numeric dimension i is dense-ranked: ranks[i][row]
	// orders the row's value among the column's distinct values (equal
	// values share a rank; -1 marks a cell that is not a usable number) and
	// rankVals[i][rank] is the value. A categorical dimension keeps its
	// coded view codes[i] plus the per-code parse results catFloat/catIsNum
	// used for split ordering.
	ranks    [][]int32
	rankVals [][]float64
	codes    []*dataset.CodedColumn
	catFloat [][]float64
	catIsNum [][]bool

	sem    chan struct{}
	wg     sync.WaitGroup
	splits atomic.Int64

	report func(done, total int)

	mu       sync.Mutex
	groups   [][]int
	rowsDone int
}

// buildColumns materializes the columnar views and global domain spans. The
// spans normalize per-partition widths so that numeric and categorical
// dimensions compete on equal footing, as in the original algorithm.
func (r *runner) buildColumns() error {
	for i := range r.qi {
		if r.numeric[i] {
			fc, err := r.t.FloatColumn(r.cols[i])
			if err != nil {
				return err
			}
			cc, err := r.t.CodedColumn(r.cols[i])
			if err != nil {
				return err
			}
			r.ranks[i], r.rankVals[i] = denseRanks(fc, cc)
			if fc.ValidCount > 0 && fc.Max > fc.Min {
				r.domainSpan[i] = fc.Max - fc.Min
			} else {
				r.domainSpan[i] = 1
			}
			continue
		}
		cc, err := r.t.CodedColumn(r.cols[i])
		if err != nil {
			return err
		}
		r.codes[i] = cc
		if cc.Cardinality() > 0 {
			r.domainSpan[i] = float64(cc.Cardinality())
		} else {
			r.domainSpan[i] = 1
		}
		// Parse each dictionary entry once so splitCategorical can order
		// values numerically (when the whole partition parses) without
		// calling ParseFloat per split. The parse results mirror the string
		// reference order (sortCategorical in oracle_test.go) exactly:
		// numeric eligibility trims whitespace, but the comparison value
		// does not (an untrimmed parse failure compares as zero, as the
		// reference comparator's ignored error did). A NaN value counts as
		// non-numeric, as it does on numeric dimensions, so the numeric
		// comparator is a total order.
		r.catFloat[i] = make([]float64, cc.Cardinality())
		r.catIsNum[i] = make([]bool, cc.Cardinality())
		for code, v := range cc.Dict {
			if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil && !math.IsNaN(f) {
				r.catIsNum[i][code] = true
				r.catFloat[i][code], _ = strconv.ParseFloat(v, 64)
			}
		}
	}
	return nil
}

// denseRanks ranks every row of a numeric column among the column's distinct
// values, so a partition can be put in (value, row) order by counting
// instead of comparison sorting. Values are read from the FloatColumn once
// per dictionary code; equal values (including distinct spellings of one
// number) share a rank. Cells that do not parse — and NaN cells, which have
// no place in the order — rank -1, which makes any partition holding one
// unsplittable on the dimension.
func denseRanks(fc *dataset.FloatColumn, cc *dataset.CodedColumn) ([]int32, []float64) {
	val := make([]float64, cc.Cardinality())
	usable := make([]bool, cc.Cardinality())
	for row, code := range cc.Codes {
		val[code] = fc.Values[row]
		usable[code] = fc.Valid[row] && !math.IsNaN(fc.Values[row])
	}
	order := make([]uint32, 0, len(val))
	for code, ok := range usable {
		if ok {
			order = append(order, uint32(code))
		}
	}
	slices.SortFunc(order, func(a, b uint32) int { return cmp.Compare(val[a], val[b]) })
	codeRank := make([]int32, len(val))
	for code := range codeRank {
		codeRank[code] = -1
	}
	var rankVals []float64
	for _, code := range order {
		if n := len(rankVals); n == 0 || rankVals[n-1] != val[code] {
			rankVals = append(rankVals, val[code])
		}
		codeRank[code] = int32(len(rankVals) - 1)
	}
	ranks := make([]int32, len(cc.Codes))
	for row, code := range cc.Codes {
		ranks[row] = codeRank[code]
	}
	return ranks, rankVals
}

// allowable reports whether a candidate partition satisfies k-anonymity and
// every extra criterion.
func (r *runner) allowable(rows []int) (bool, error) {
	if len(rows) < r.cfg.K {
		return false, nil
	}
	if len(r.cfg.Extra) == 0 {
		return true, nil
	}
	class := []dataset.EquivalenceClass{{Rows: rows}}
	ok, _, err := privacy.CheckAll(r.t, class, r.cfg.Extra...)
	return ok, err
}

// partition recursively splits rows and appends final partitions to groups.
// After a successful split the left subtree is handed to another worker when
// one is free (and the subtree is large enough to amortize the handoff); the
// right subtree always continues on the current goroutine.
func (r *runner) partition(rows []int, sc *scratch) {
	// Cancellation gate: every subtree entry polls the context, so a canceled
	// request stops the whole pool within one split's worth of work. The
	// partial groups are discarded by AnonymizeContext, so bailing out without
	// appending is safe.
	select {
	case <-r.ctx.Done():
		return
	default:
	}
	// Try dimensions in order of decreasing normalized width.
	order := r.dimensionOrder(rows, sc)
	for _, dim := range order {
		lhs, rhs, ok := r.split(rows, dim, sc)
		if !ok {
			continue
		}
		okL, errL := r.allowable(lhs)
		okR, errR := r.allowable(rhs)
		if errL != nil || errR != nil {
			// Criterion errors indicate misconfiguration (unknown sensitive
			// attribute); treat the partition as unsplittable rather than
			// silently dropping rows.
			continue
		}
		if okL && okR {
			r.splits.Add(1)
			if len(lhs) >= parallelThreshold {
				select {
				case r.sem <- struct{}{}:
					r.wg.Add(1)
					go func() {
						defer r.wg.Done()
						defer func() { <-r.sem }()
						r.partition(lhs, r.newScratch())
					}()
					r.partition(rhs, sc)
					return
				default:
				}
			}
			r.partition(lhs, sc)
			r.partition(rhs, sc)
			return
		}
	}
	r.mu.Lock()
	r.groups = append(r.groups, rows)
	r.rowsDone += len(rows)
	r.report(r.rowsDone, r.t.Len())
	r.mu.Unlock()
}

// dimensionOrder returns quasi-identifier dimension indices sorted by
// decreasing normalized width over the given rows.
func (r *runner) dimensionOrder(rows []int, sc *scratch) []int {
	type dw struct {
		dim   int
		width float64
	}
	widths := make([]dw, len(r.cols))
	for i := range r.cols {
		widths[i] = dw{dim: i, width: r.width(rows, i, sc)}
	}
	slices.SortFunc(widths, func(a, b dw) int {
		if a.width != b.width {
			if a.width > b.width {
				return -1
			}
			return 1
		}
		return a.dim - b.dim
	})
	out := make([]int, len(widths))
	for i, w := range widths {
		out[i] = w.dim
	}
	return out
}

// width computes the normalized range of dimension dim over rows: the
// numeric span divided by the attribute's global span, or the distinct-value
// count divided by the global domain size. Both cases read the cached
// columns; no cell is parsed.
func (r *runner) width(rows []int, dim int, sc *scratch) float64 {
	span := r.domainSpan[dim]
	if span <= 0 {
		span = 1
	}
	if r.numeric[dim] {
		lo, hi, _ := rankRange(r.ranks[dim], rows)
		if lo < 0 {
			return 0
		}
		vals := r.rankVals[dim]
		return (vals[hi] - vals[lo]) / span
	}
	distinct := sc.countDistinct(r.codes[dim], rows)
	if distinct <= 1 {
		return 0
	}
	return float64(distinct) / span
}

// scratch holds one worker goroutine's reusable split and width buffers, so
// the recursion allocates only the arenas that become partitions. The
// per-code buffers are sized to the largest categorical dictionary.
type scratch struct {
	// mark[code] == stamp when code was already seen by the current scan.
	mark  []uint32
	stamp uint32
	// counts is all zero between calls.
	counts []int32
	codes  []uint32
	// keys backs the numeric split's packed (rank, row) keys.
	keys []uint64
}

func (r *runner) newScratch() *scratch {
	card := 0
	for _, cc := range r.codes {
		if cc != nil {
			card = max(card, cc.Cardinality())
		}
	}
	return &scratch{mark: make([]uint32, card), counts: make([]int32, card)}
}

// countDistinct counts the distinct codes of cc among rows.
func (sc *scratch) countDistinct(cc *dataset.CodedColumn, rows []int) int {
	sc.stamp++
	if sc.stamp == 0 {
		clear(sc.mark)
		sc.stamp = 1
	}
	distinct := 0
	for _, row := range rows {
		code := cc.Codes[row]
		if sc.mark[code] != sc.stamp {
			sc.mark[code] = sc.stamp
			distinct++
		}
	}
	return distinct
}

// split divides rows along dimension dim. It returns ok=false when the
// dimension cannot be split (all values equal, or a strict split would leave
// one side empty).
func (r *runner) split(rows []int, dim int, sc *scratch) (lhs, rhs []int, ok bool) {
	if r.numeric[dim] {
		return r.splitNumeric(rows, dim, sc)
	}
	return r.splitCategorical(rows, dim, sc)
}

// rankRange returns the smallest and largest rank among rows, ignoring rows
// ranked -1 (lo = hi = -1 when every row is); complete reports that no row
// was.
func rankRange(ranks []int32, rows []int) (lo, hi int32, complete bool) {
	lo, hi, complete = -1, -1, true
	for _, row := range rows {
		x := ranks[row]
		if x < 0 {
			complete = false
			continue
		}
		if lo < 0 || x < lo {
			lo = x
		}
		hi = max(hi, x)
	}
	return lo, hi, complete
}

// splitNumeric orders rows by (value, row) and cuts at the median. The order
// comes from the dimension's dense ranks: packed (rank, row) keys sort as
// plain integers into exactly the (value, row) order of a comparison sort
// over the parsed values.
func (r *runner) splitNumeric(rows []int, dim int, sc *scratch) (lhs, rhs []int, ok bool) {
	rk := r.ranks[dim]
	lo, hi, complete := rankRange(rk, rows)
	if !complete || lo == hi {
		// A cell that is not a usable number (already generalized or
		// suppressed input, or NaN) leaves the dimension without an order;
		// all-equal values leave nothing to split.
		return nil, nil, false
	}
	// Ranks and rows both fit in 32 bits (newRunner caps the row count).
	keys := sc.keys[:0]
	for _, row := range rows {
		keys = append(keys, uint64(rk[row])<<32|uint64(row))
	}
	sc.keys = keys
	slices.Sort(keys)
	// The ordered rows land in one arena; lhs and rhs are its two halves.
	arena := make([]int, len(rows))
	for i, key := range keys {
		arena[i] = int(uint32(key))
	}
	cut := 0
	if r.cfg.Strict {
		median := rk[arena[len(arena)/2]]
		for cut < len(arena) && rk[arena[cut]] < median {
			cut++
		}
		if cut == 0 {
			// All mass at or above the median value; put the median group on
			// the left instead.
			for cut < len(arena) && rk[arena[cut]] <= median {
				cut++
			}
		}
	} else {
		cut = len(arena) / 2
	}
	if cut == 0 || cut == len(arena) {
		return nil, nil, false
	}
	return arena[:cut:cut], arena[cut:], true
}

func (r *runner) splitCategorical(rows []int, dim int, sc *scratch) (lhs, rhs []int, ok bool) {
	cc := r.codes[dim]
	// Count occurrences per code, then scatter rows into a value-major arena
	// (values in split order, rows in partition order within a value). The
	// two sides are subslices of the arena; counts and the distinct-code list
	// live in the worker's scratch, so a split allocates only the arena.
	counts := sc.counts[:cc.Cardinality()]
	codes := sc.codes[:0]
	for _, row := range rows {
		code := cc.Codes[row]
		if counts[code] == 0 {
			codes = append(codes, code)
		}
		counts[code]++
	}
	sc.codes = codes
	// Leave counts all zero for the next call, whichever way this one ends.
	defer func() {
		for _, code := range codes {
			counts[code] = 0
		}
	}()
	if len(codes) < 2 {
		return nil, nil, false
	}
	r.sortCodes(dim, codes)
	// Greedy balance: walk values in order, filling the left half until it
	// holds at least half the rows.
	target := len(rows) / 2
	count := 0
	cut := 0
	cursor := counts // reuse the counts storage as scatter cursors
	off := int32(0)
	for _, code := range codes {
		n := counts[code]
		if count < target {
			count += int(n)
			cut = int(off) + int(n)
		}
		cursor[code] = off
		off += n
	}
	if cut == 0 || cut == len(rows) {
		return nil, nil, false
	}
	arena := make([]int, len(rows))
	for _, row := range rows {
		code := cc.Codes[row]
		arena[cursor[code]] = row
		cursor[code]++
	}
	return arena[:cut:cut], arena[cut:], true
}

// sortCodes orders the partition's distinct codes the way the string
// reference order (sortCategorical in oracle_test.go) orders values —
// numerically when every present value parses as a number,
// lexicographically otherwise — using the per-code parse results cached at
// startup instead of re-parsing. Ties (distinct spellings of the same
// number) break on the code, and NaN never takes the numeric path, so both
// comparators are total orders and the result does not depend on the order
// codes arrive in.
func (r *runner) sortCodes(dim int, codes []uint32) {
	isNum := r.catIsNum[dim]
	numeric := true
	for _, c := range codes {
		if !isNum[c] {
			numeric = false
			break
		}
	}
	if numeric {
		vals := r.catFloat[dim]
		slices.SortFunc(codes, func(a, b uint32) int {
			if vals[a] != vals[b] {
				if vals[a] < vals[b] {
					return -1
				}
				return 1
			}
			return int(a) - int(b)
		})
		return
	}
	dict := r.codes[dim].Dict
	slices.SortFunc(codes, func(a, b uint32) int { return strings.Compare(dict[a], dict[b]) })
}
