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
// numeric dimensions are dense-ranked once per run from the columns'
// per-code numeric readings, so a split orders its partition by sorting
// integer (rank, row) keys instead of comparing values, and categorical
// dimensions read dictionary-encoded CodedColumns, so the recursion never
// re-parses or re-hashes cell strings.
// A split of radixThreshold or more rows orders its keys with an LSD radix
// sort, which gives the same order. The recursion splits one row permutation
// in place, as quicksort does (Hoare, CACM 1962): every partition and group
// is a capped subslice of it, and no split allocates. A categorical split
// reuses the per-code counts the width scan left in the worker's scratch.
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
	// table, ordered by their smallest member row index. They are disjoint
	// subslices of one row permutation, each capped at its length, so an
	// append to one group never writes another.
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
		cc, err := r.t.CodedColumn(r.cols[i])
		if err != nil {
			return err
		}
		if r.numeric[i] {
			st := cc.Stats()
			r.ranks[i], r.rankVals[i] = denseRanks(cc.Codes, st)
			// Numeric spans are halved, here and in width, so that values
			// near ±MaxFloat64 cannot overflow them. For normal values the
			// width, a ratio of two halved spans, equals the unhalved ratio
			// bit for bit. A column with no number but NaN has Min +Inf
			// and Max -Inf, so no positive span.
			if half := st.Max/2 - st.Min/2; half > 0 {
				r.domainSpan[i] = half
			} else {
				r.domainSpan[i] = 1
			}
			continue
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
// instead of comparison sorting. Values are read from the column's
// per-code numeric reading st; equal values (including distinct spellings
// of one number) share a rank. Cells that do not parse — and NaN cells,
// which have no place in the order — rank -1, which makes any partition
// holding one unsplittable on the dimension.
func denseRanks(codes []uint32, st *dataset.ColumnStats) ([]int32, []float64) {
	order := make([]uint32, 0, len(st.Lex))
	for _, code := range st.Lex {
		if st.Parsed[code] && !math.IsNaN(st.Num[code]) {
			order = append(order, code)
		}
	}
	slices.SortFunc(order, func(a, b uint32) int { return cmp.Compare(st.Num[a], st.Num[b]) })
	codeRank := make([]int32, len(st.Num))
	for code := range codeRank {
		codeRank[code] = -1
	}
	var rankVals []float64
	for _, code := range order {
		if n := len(rankVals); n == 0 || rankVals[n-1] != st.Num[code] {
			rankVals = append(rankVals, st.Num[code])
		}
		codeRank[code] = int32(len(rankVals) - 1)
	}
	ranks := make([]int32, len(codes))
	for row, code := range codes {
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
// partition. On a numeric dimension it also keeps the partition's rank
// range from the width scan (rankRange), so the split need not scan the
// rows again.
type dimWidth struct {
	dim      int
	width    float64
	lo, hi   int32
	complete bool
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
			order = append(order, w)
			next = append(next, dim)
		}
	}
	sortByWidth(order)
	for _, o := range order {
		lhs, rhs, ok := r.split(rows, o, sc)
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
			// rows take the split's order only now, so a rejected attempt
			// left them as they were; rows is capped, so both halves are.
			cut := copy(rows, lhs)
			copy(rows[cut:], rhs)
			lhs, rhs = rows[:cut:cut], rows[cut:]
			sc.clearCounts(live)
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
	sc.clearCounts(live)
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
// columns; no cell is parsed. A categorical scan leaves its per-code counts
// and distinct codes in sc (see scratch). live reports whether the dimension
// can still split rows or a subset of them: a numeric dimension is dead once
// every row shares one rank (or none has a rank), a categorical one once
// every row shares one code. The test is structural, never width == 0: a width can
// underflow to 0 while splits still exist.
func (r *runner) width(rows []int, dim int, sc *scratch) (w dimWidth, live bool) {
	w.dim = dim
	span := r.domainSpan[dim]
	if r.numeric[dim] {
		w.lo, w.hi, w.complete = rankRange(r.ranks[dim], rows)
		if w.lo == w.hi {
			return w, false
		}
		vals := r.rankVals[dim]
		w.width = (vals[w.hi]/2 - vals[w.lo]/2) / span
		return w, true
	}
	col, counts, codes := r.codes[dim].Codes, sc.counts[dim], sc.codes[dim]
	for _, row := range rows {
		code := col[row]
		if counts[code] == 0 {
			codes = append(codes, code)
		}
		counts[code]++
	}
	sc.codes[dim] = codes
	if len(codes) <= 1 {
		return w, false
	}
	w.width = float64(len(codes)) / span
	return w, true
}

// scratch holds one worker goroutine's reusable split and width buffers, so
// the recursion allocates nothing per split.
type scratch struct {
	// counts[dim] holds the per-code counts of categorical dimension dim
	// over the partition last scanned, and codes[dim] its distinct codes in
	// first-appearance order. The width scan fills them, splitCategorical
	// reads them, and partition zeroes them (clearCounts) before it recurses
	// or settles.
	counts [][]int32
	codes  [][]uint32
	// perm receives a split's ordered rows: lhs and rhs are its two halves.
	perm []int
	// keys backs the numeric split's packed (rank, row) keys; radixTmp and
	// radixCount are the radix sort's scatter buffer and digit histogram.
	keys       []uint64
	radixTmp   []uint64
	radixCount [1 << radixDigitBits]int32
}

// newScratch sizes a worker's per-code buffers to each categorical
// dictionary.
func (r *runner) newScratch() *scratch {
	sc := &scratch{counts: make([][]int32, len(r.codes)), codes: make([][]uint32, len(r.codes))}
	for dim, cc := range r.codes {
		if cc != nil {
			sc.counts[dim], sc.codes[dim] = make([]int32, cc.Cardinality()), make([]uint32, 0, cc.Cardinality())
		}
	}
	return sc
}

// clearCounts zeroes what the width scan counted over dims.
func (sc *scratch) clearCounts(dims []int) {
	for _, dim := range dims {
		counts := sc.counts[dim]
		for _, code := range sc.codes[dim] {
			counts[code] = 0
		}
		sc.codes[dim] = sc.codes[dim][:0]
	}
}

// rowBuf returns sc.perm resized to n rows.
func (sc *scratch) rowBuf(n int) []int {
	if cap(sc.perm) < n {
		sc.perm = make([]int, n)
	}
	return sc.perm[:n]
}

// split orders rows along dimension w.dim, as measured over rows by width,
// into sc.perm, and returns the two halves of that order. rows keep their
// own order. It returns ok=false when the dimension cannot be split (all
// values equal, or a strict split would leave one side empty).
func (r *runner) split(rows []int, w dimWidth, sc *scratch) (lhs, rhs []int, ok bool) {
	if r.numeric[w.dim] {
		return r.splitNumeric(rows, w, sc)
	}
	return r.splitCategorical(rows, w.dim, sc)
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
// over the parsed values. w carries the rank range of rows on w.dim.
func (r *runner) splitNumeric(rows []int, w dimWidth, sc *scratch) (lhs, rhs []int, ok bool) {
	rk := r.ranks[w.dim]
	lo, hi := w.lo, w.hi
	if !w.complete || lo == hi {
		// A cell that is not a usable number (already generalized or
		// suppressed input, or NaN) leaves the dimension without an order;
		// all-equal values leave nothing to split.
		return nil, nil, false
	}
	// Each key packs the rank offset above the row index; both fit in 32
	// bits (newRunner caps the row count), so keys order as (rank, row).
	shift := r.rowBits
	if cap(sc.keys) < len(rows) {
		sc.keys = make([]uint64, len(rows))
	}
	keys := sc.keys[:len(rows)]
	for i, row := range rows {
		keys[i] = uint64(rk[row]-lo)<<shift | uint64(row)
	}
	if len(keys) >= radixThreshold {
		sc.radixSort(keys, shift+bits.Len32(uint32(hi-lo)))
	} else {
		slices.Sort(keys)
	}
	// The ordered rows land in the scratch's row buffer.
	arena := sc.rowBuf(len(rows))
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

// splitCategorical orders rows value-major (values in sortCodes order, rows
// in partition order within a value) and cuts where the left side first
// holds at least half the rows. It reads the per-code counts and distinct
// codes the width scan left in sc, and reuses the counts as scatter cursors.
func (r *runner) splitCategorical(rows []int, dim int, sc *scratch) (lhs, rhs []int, ok bool) {
	counts, codes := sc.counts[dim], sc.codes[dim]
	r.sortCodes(dim, codes)
	target := len(rows) / 2
	count, cut, off := 0, 0, int32(0)
	for _, code := range codes {
		n := counts[code]
		if count < target {
			count += int(n)
			cut = int(off) + int(n)
		}
		counts[code] = off
		off += n
	}
	if cut == 0 || cut == len(rows) {
		return nil, nil, false
	}
	arena := sc.rowBuf(len(rows))
	col := r.codes[dim].Codes
	for _, row := range rows {
		code := col[row]
		arena[counts[code]] = row
		counts[code]++
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
		slices.SortFunc(codes, func(a, b uint32) int { return cmp.Or(cmp.Compare(vals[a], vals[b]), int(a)-int(b)) })
		return
	}
	dict := r.codes[dim].Dict
	slices.SortFunc(codes, func(a, b uint32) int { return strings.Compare(dict[a], dict[b]) })
}
