// Package kmember implements the greedy k-member clustering anonymizer of
// Byun et al.: records are grouped into clusters of at least k members by
// greedily adding, at each step, the record whose inclusion increases the
// cluster's information loss (normalized certainty penalty) the least.
// Clusters are then recoded multidimensionally. Clustering-based
// anonymization trades O(n²) running time for lower information loss than
// full-domain recoding.
// The loss reads the input's dictionary codes, never cell strings: a
// numeric quasi-identifier reads each code's number from the column's
// per-code numeric reading (a cell that does not parse counts as maximal
// spread), and each cluster keeps the distinct codes it holds per
// categorical dimension.
// The candidate losses of one growth step are independent of each other, so
// each nearest-record scan is split across a bounded worker pool
// (Config.Workers): every worker folds a contiguous chunk of the unassigned
// records (kept in ascending row order) and the chunk results fold
// sequentially under the same (loss, row) total order, so the chosen record —
// and therefore the released table — is identical for every worker count.
package kmember

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/generalize"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/parallel"
)

// Common errors. Each carries its engine class (engine.ErrConfig or
// engine.ErrUnsatisfiable), so errors.Is matches either.
var (
	// ErrConfig is returned for invalid configurations.
	ErrConfig = engine.ConfigError(errors.New("kmember: invalid configuration"))
	// ErrTooFewRecords is returned when the table has fewer than k records.
	ErrTooFewRecords = engine.UnsatisfiableError(errors.New("kmember: table has fewer than k records"))
)

// Config controls a k-member clustering run.
type Config struct {
	// K is the minimum cluster size.
	K int
	// QuasiIdentifiers lists the attributes considered for distance and
	// recoding; when empty the schema's quasi-identifier columns are used.
	QuasiIdentifiers []string
	// Hierarchies is optional: when present it is used for the categorical
	// recoding of the final clusters; the clustering loss itself uses
	// distinct-value ratios.
	Hierarchies *hierarchy.Set
	// Workers bounds the pool that scans unassigned records during seed
	// selection and cluster growth. Zero uses runtime.GOMAXPROCS(0); 1
	// forces a sequential run. The released table is identical for every
	// count.
	Workers int
	// Progress, when non-nil, receives (done, total) after every grown
	// cluster — the same unit of work the context is polled at. Done counts
	// the records placed into clusters so far and total is the table size; a
	// successful run ends with a (total, total) event once the residual
	// records are assigned.
	Progress func(done, total int)
}

// Result describes the outcome of a run.
type Result struct {
	// Table is the released, multidimensionally recoded table.
	Table *dataset.Table
	// Groups are the clusters as row-index sets into the input table.
	Groups [][]int
	// Summaries are the per-cluster released quasi-identifier values.
	Summaries []generalize.GroupSummary
}

// clusterState tracks a cluster's quasi-identifier extent incrementally so
// that candidate evaluation is O(|QI|) rather than O(cluster size).
type clusterState struct {
	rows []int
	// numeric extents
	lo, hi []float64
	// seen[i] lists the distinct dictionary codes of categorical dimension i
	// held by the cluster; it never outgrows the cluster.
	seen [][]uint32
}

// dim is one quasi-identifier as the clustering loss reads it: the
// dictionary codes of the attribute, with the per-code numeric reading of a
// numeric one and the normalizer of its penalty.
type dim struct {
	// codes are the dimension's per-row dictionary codes.
	codes []uint32
	// num and parsed are a numeric dimension's per-code reading
	// (ColumnStats.Num and Parsed); nil for categorical dimensions.
	num    []float64
	parsed []bool
	// scale is the numeric range or the number of distinct values.
	scale float64
}

// Anonymize runs greedy k-member clustering over t with no cancellation; it
// is shorthand for AnonymizeContext with a background context.
func Anonymize(t *dataset.Table, cfg Config) (*Result, error) {
	return AnonymizeContext(context.Background(), t, cfg)
}

// AnonymizeContext runs greedy k-member clustering over t. The context is
// polled once per grown cluster — the algorithm's natural unit of work — so
// a canceled or timed-out run returns ctx.Err() after at most one cluster
// instead of a result.
func AnonymizeContext(ctx context.Context, t *dataset.Table, cfg Config) (*Result, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("%w: k = %d", ErrConfig, cfg.K)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("%w: workers = %d", ErrConfig, cfg.Workers)
	}
	if t.Len() < cfg.K {
		return nil, fmt.Errorf("%w: %d records, k=%d", ErrTooFewRecords, t.Len(), cfg.K)
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	qi := cfg.QuasiIdentifiers
	if len(qi) == 0 {
		qi = t.Schema().QuasiIdentifierNames()
	}
	if len(qi) == 0 {
		return nil, fmt.Errorf("%w: no quasi-identifier attributes", ErrConfig)
	}
	dims := make([]dim, len(qi))
	for i, a := range qi {
		c, err := t.Schema().Index(a)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrConfig, err)
		}
		cc, err := t.CodedColumn(c)
		if err != nil {
			return nil, err
		}
		dims[i].codes = cc.Codes
		if attr, _ := t.Schema().ByName(a); attr.Type == dataset.Numeric {
			lo, hi, err := t.NumericRange(a)
			if err != nil {
				return nil, err
			}
			st := cc.Stats()
			dims[i].num, dims[i].parsed = st.Num, st.Parsed
			dims[i].scale = hi - lo
		} else {
			dims[i].scale = float64(len(cc.Stats().Lex))
		}
		if dims[i].scale <= 0 {
			dims[i].scale = 1
		}
	}

	// Unassigned records, kept in ascending row order: the scans fold under
	// a (loss, row) total order, so a sorted slice makes every outcome —
	// including the residual phase — deterministic.
	unassigned := make([]int, t.Len())
	for i := range unassigned {
		unassigned[i] = i
	}

	// add places row r into cs — a new cluster seeded by r when cs is nil —
	// and returns the cluster.
	add := func(cs *clusterState, r int) *clusterState {
		if cs == nil {
			cs = &clusterState{
				lo:   make([]float64, len(dims)),
				hi:   make([]float64, len(dims)),
				seen: make([][]uint32, len(dims)),
			}
		}
		for i := range dims {
			d := &dims[i]
			code := d.codes[r]
			if d.parsed == nil {
				if !slices.Contains(cs.seen[i], code) {
					cs.seen[i] = append(cs.seen[i], code)
				}
				continue
			}
			if !d.parsed[code] {
				continue
			}
			v := d.num[code]
			if len(cs.rows) == 0 || v < cs.lo[i] {
				cs.lo[i] = v
			}
			if len(cs.rows) == 0 || v > cs.hi[i] {
				cs.hi[i] = v
			}
		}
		cs.rows = append(cs.rows, r)
		return cs
	}

	// loss computes the cluster's NCP after hypothetically adding row r. It
	// only reads the cluster state and the table, so concurrent calls from
	// the scan pool are safe between mutations.
	loss := func(cs *clusterState, r int) float64 {
		total := 0.0
		// d points into dims: copying each dimension per candidate row
		// shows in the O(n²) scans.
		for i := range dims {
			d := &dims[i]
			code := d.codes[r]
			if d.parsed == nil {
				n := len(cs.seen[i])
				if !slices.Contains(cs.seen[i], code) {
					n++
				}
				if n > 1 {
					total += float64(n) / d.scale
				}
				continue
			}
			if !d.parsed[code] {
				// Treat unparseable numerics as maximal spread.
				total += 1
				continue
			}
			v := d.num[code]
			lo, hi := cs.lo[i], cs.hi[i]
			if len(cs.rows) == 0 {
				lo, hi = v, v
			} else {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			total += (hi - lo) / d.scale
		}
		return total
	}

	report := cfg.Progress
	if report == nil {
		report = func(int, int) {}
	}
	placed := 0

	var clusters []*clusterState
	for len(unassigned) >= cfg.K {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("kmember: %w", err)
		}
		// Seed selection follows Byun et al.: the record farthest (largest
		// loss) from the previous cluster starts the next one; the first
		// cluster starts from the lowest unassigned index.
		seedRow := pickSeed(unassigned, clusters, workers, loss)
		unassigned = removeSorted(unassigned, seedRow)
		cs := add(nil, seedRow)
		for len(cs.rows) < cfg.K {
			bestRow, _ := scanBest(unassigned, workers,
				func(r int) float64 { return loss(cs, r) }, lowerLoss)
			if bestRow == -1 {
				break
			}
			unassigned = removeSorted(unassigned, bestRow)
			add(cs, bestRow)
		}
		clusters = append(clusters, cs)
		placed += len(cs.rows)
		report(placed, t.Len())
	}
	// Residual records join the cluster whose loss increases least, in
	// ascending row order so repeated runs agree on the released row sets.
	// The loop above formed at least one cluster, since t holds k records.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("kmember: %w", err)
	}
	for _, r := range unassigned {
		best, bestLoss := clusters[0], loss(clusters[0], r)
		for _, cs := range clusters[1:] {
			if l := loss(cs, r); l < bestLoss {
				best, bestLoss = cs, l
			}
		}
		add(best, r)
	}

	report(t.Len(), t.Len())

	groups := make([][]int, len(clusters))
	for i, cs := range clusters {
		groups[i] = cs.rows
	}
	released, summaries, err := generalize.RecodeGroups(t, qi, cfg.Hierarchies, groups)
	if err != nil {
		return nil, err
	}
	return &Result{Table: released, Groups: groups, Summaries: summaries}, nil
}

// pickSeed chooses the next cluster's starting record: the unassigned record
// with the largest loss relative to the most recent cluster (ties and the
// first cluster resolve to the smallest row index, keeping runs
// deterministic).
func pickSeed(unassigned []int, clusters []*clusterState, workers int, loss func(*clusterState, int) float64) int {
	if len(unassigned) == 0 {
		return -1
	}
	if len(clusters) == 0 {
		// Every loss is zero relative to no cluster; the smallest index wins.
		return unassigned[0]
	}
	last := clusters[len(clusters)-1]
	best, _ := scanBest(unassigned, workers,
		func(r int) float64 { return loss(last, r) }, higherLoss)
	return best
}

// lowerLoss is the growth-step order: least loss first, smallest row on ties.
func lowerLoss(l float64, r int, bestL float64, bestR int) bool {
	return l < bestL || (l == bestL && r < bestR)
}

// higherLoss is the seed-selection order: largest loss first, smallest row on
// ties.
func higherLoss(l float64, r int, bestL float64, bestR int) bool {
	return l > bestL || (l == bestL && r < bestR)
}

// parallelScanMin is the smallest scan worth fanning out to the worker pool;
// below it the fork-join overhead exceeds the scan itself. The threshold
// cannot change results — both paths fold the same total order.
const parallelScanMin = 512

// scanBest returns the record of rows (ascending row order) that is best
// under the better comparator, together with its loss. The slice is split
// into one contiguous chunk per worker, each chunk folds its local best
// concurrently, and the chunk results fold sequentially in slice order —
// for a total order over (loss, row) the outcome is therefore identical for
// every worker count.
func scanBest(rows []int, workers int, score func(r int) float64, better func(l float64, r int, bestL float64, bestR int) bool) (int, float64) {
	type best struct {
		row  int
		loss float64
	}
	fold := func(part []int) best {
		b := best{row: -1}
		for _, r := range part {
			l := score(r)
			if b.row == -1 || better(l, r, b.loss, b.row) {
				b = best{row: r, loss: l}
			}
		}
		return b
	}
	chunks := workers
	if len(rows) < parallelScanMin {
		chunks = 1
	}
	if chunks > len(rows) {
		chunks = len(rows)
	}
	if chunks <= 1 {
		b := fold(rows)
		return b.row, b.loss
	}
	// Cap the pool at workers explicitly: chunks currently equals workers,
	// but the pool size must not silently grow if the chunking policy ever
	// decouples from it. No chunk fails, so Map returns no error.
	outs, _ := parallel.Map(chunks, workers, func(ci int) (best, error) {
		return fold(rows[ci*len(rows)/chunks : (ci+1)*len(rows)/chunks]), nil
	})
	b := best{row: -1}
	for _, o := range outs {
		if o.row == -1 {
			continue
		}
		if b.row == -1 || better(o.loss, o.row, b.loss, b.row) {
			b = o
		}
	}
	return b.row, b.loss
}

// removeSorted deletes value v from the ascending slice s in place,
// preserving order.
func removeSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i >= len(s) || s[i] != v {
		return s
	}
	return append(s[:i], s[i+1:]...)
}
