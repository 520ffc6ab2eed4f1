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
// A split of radixThreshold or more rows orders its keys with an LSD radix
// sort, which gives the same order.
//
// Two exact pruning rules spare the recursion partitions that cannot split.
// A partition of fewer than 2K rows is final without measuring anything:
// every allowable split leaves at least K rows on each side, and the sides
// add up to the partition (extra criteria only forbid more splits). And a
// dimension that cannot split a partition — one distinct code, or one rank
// (or none) on a numeric dimension — cannot split any subset of it, so each
// partition hands its children only the dimensions still live over its own
// rows. Liveness is this structural test, never width == 0: a width can
// underflow to 0 while the partition still splits. Live dimensions are
// tried in decreasing width, ties in dimension order; that is a total order,
// so leaving the dead ones out of the sort keeps the order of the rest.
//
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
	"math/bits"
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
	live := make([]int, len(qi))
	for i := range live {
		live[i] = i
	}
	run.partition(all, live, run.newScratch())
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
		rowBits:    bits.Len(uint(t.Len())),
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
	// rowBits bounds the bit width of every row index.
	rowBits int

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
			// Numeric spans are halved, here and in width, so that values
			// near ±MaxFloat64 cannot overflow them. For normal values the
			// width, a ratio of two halved spans, equals the unhalved ratio
			// bit for bit.
			if half := fc.Max/2 - fc.Min/2; fc.ValidCount > 0 && half > 0 {
				r.domainSpan[i] = half
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

// maxStackDims is the live-dimension count up to which partition keeps its
// dimension order and live list in stack arrays; more live dimensions
// allocate them.
const maxStackDims = 16

// dimWidth pairs a live dimension with its normalized width over a
// partition.
type dimWidth struct {
	dim   int
	width float64
}

// partition recursively splits rows and appends final partitions to groups.
// live lists the dimensions that may still split rows: a dimension that
// cannot split a partition cannot split any subset of it, so each partition
// passes its children only the dimensions that were live over its own rows.
// After a successful split the left subtree is handed to another worker when
// one is free (and the subtree is large enough to amortize the handoff); the
// right subtree always continues on the current goroutine.
func (r *runner) partition(rows []int, live []int, sc *scratch) {
	// Cancellation gate: every subtree entry polls the context, so a canceled
	// request stops the whole pool within one split's worth of work. The
	// partial groups are discarded by AnonymizeContext, so bailing out without
	// appending is safe.
	select {
	case <-r.ctx.Done():
		return
	default:
	}
	// Every allowable split leaves at least K rows on each side, so a
	// partition of fewer than 2K rows is final without measuring anything.
	if len(rows) < 2*r.cfg.K {
		r.settle(rows)
		return
	}
	var orderBuf [maxStackDims]dimWidth
	var nextBuf [maxStackDims]int
	order, next := orderBuf[:0], nextBuf[:0]
	if n := len(live); n > maxStackDims {
		order, next = make([]dimWidth, 0, n), make([]int, 0, n)
	}
	// Try the live dimensions in order of decreasing normalized width; next
	// keeps the ones still live here, in index order, for the children.
	for _, dim := range live {
		if w, ok := r.width(rows, dim, sc); ok {
			order = append(order, dimWidth{dim: dim, width: w})
			next = append(next, dim)
		}
	}
	sortByWidth(order)
	for _, o := range order {
		lhs, rhs, ok := r.split(rows, o.dim, sc)
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
					// next lives in this frame, which the handed-off
					// subtree may outlive.
					own := slices.Clone(next)
					r.wg.Add(1)
					go func() {
						defer r.wg.Done()
						defer func() { <-r.sem }()
						r.partition(lhs, own, r.newScratch())
					}()
					r.partition(rhs, next, sc)
					return
				default:
				}
			}
			r.partition(lhs, next, sc)
			r.partition(rhs, next, sc)
			return
		}
	}
	r.settle(rows)
}

// settle records rows as a final partition.
func (r *runner) settle(rows []int) {
	r.mu.Lock()
	r.groups = append(r.groups, rows)
	r.rowsDone += len(rows)
	r.report(r.rowsDone, r.t.Len())
	r.mu.Unlock()
}

// sortByWidth orders dimensions by decreasing width, breaking ties on the
// dimension index. cmp.Compare keeps the order total even on the NaN width
// of a column that holds an infinite cell, which sorts last.
func sortByWidth(order []dimWidth) {
	slices.SortFunc(order, func(a, b dimWidth) int {
		return cmp.Or(cmp.Compare(b.width, a.width), a.dim-b.dim)
	})
}

// width computes the normalized range of dimension dim over rows: the
// numeric span divided by the attribute's global span, or the distinct-value
// count divided by the global domain size. Both cases read the cached
// columns; no cell is parsed. live reports whether the dimension can still
// split rows or a subset of them: a numeric dimension is dead once every row
// shares one rank (or none has a rank), a categorical one once every row
// shares one code. The test is structural, never width == 0: a width can
// underflow to 0 while splits still exist.
func (r *runner) width(rows []int, dim int, sc *scratch) (w float64, live bool) {
	span := r.domainSpan[dim]
	if r.numeric[dim] {
		lo, hi, _ := rankRange(r.ranks[dim], rows)
		if lo == hi {
			return 0, false
		}
		vals := r.rankVals[dim]
		return (vals[hi]/2 - vals[lo]/2) / span, true
	}
	distinct := sc.countDistinct(r.codes[dim], rows)
	if distinct <= 1 {
		return 0, false
	}
	return float64(distinct) / span, true
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
	// keys backs the numeric split's packed (rank, row) keys; radixTmp and
	// radixCount are the radix sort's scatter buffer and digit histogram.
	keys       []uint64
	radixTmp   []uint64
	radixCount [1 << radixDigitBits]int32
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

// radixThreshold is the partition size from which splitNumeric orders its
// keys with radixSort instead of a comparison sort. Below it, clearing and
// summing a digit histogram on every pass costs more than slices.Sort
// (BenchmarkSortKeys times both).
const radixThreshold = 256

// radixDigitBits bounds the digit width of radixSort's passes.
const radixDigitBits = 11

// radixSort sorts keys whose set bits all lie below bit width (width > 0)
// with a stable least-significant-digit radix sort: the same order as
// slices.Sort, in a few counting passes instead of n log n comparisons.
func (sc *scratch) radixSort(keys []uint64, width int) {
	passes := (width + radixDigitBits - 1) / radixDigitBits
	digit := uint((width + passes - 1) / passes)
	if cap(sc.radixTmp) < len(keys) {
		sc.radixTmp = make([]uint64, len(keys))
	}
	src, dst := keys, sc.radixTmp[:len(keys)]
	count := sc.radixCount[:1<<digit]
	mask := uint64(1)<<digit - 1
	for pass := range passes {
		shift := uint(pass) * digit
		clear(count)
		for _, k := range src {
			count[k>>shift&mask]++
		}
		off := int32(0)
		for d, c := range count {
			count[d] = off
			off += c
		}
		for _, k := range src {
			d := k >> shift & mask
			dst[count[d]] = k
			count[d]++
		}
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(keys, src)
	}
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
	// Each key packs the rank offset above the row index; both fit in 32
	// bits (newRunner caps the row count), so keys order as (rank, row).
	shift := r.rowBits
	keys := sc.keys[:0]
	for _, row := range rows {
		keys = append(keys, uint64(rk[row]-lo)<<shift|uint64(row))
	}
	sc.keys = keys
	if len(keys) >= radixThreshold {
		sc.radixSort(keys, shift+bits.Len32(uint32(hi-lo)))
	} else {
		slices.Sort(keys)
	}
	// The ordered rows land in one arena; lhs and rhs are its two halves.
	arena := make([]int, len(rows))
	mask := uint64(1)<<shift - 1
	for i, key := range keys {
		arena[i] = int(key & mask)
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
