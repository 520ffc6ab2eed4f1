// Package anatomy implements Xiao and Tao's Anatomy: an anonymization scheme
// that releases the exact quasi-identifier values but severs their link to
// the sensitive attribute by bucketizing records into groups that each
// contain at least L distinct sensitive values, publishing two tables — a
// quasi-identifier table (QIT) mapping each record to its group, and a
// sensitive table (ST) giving the sensitive-value histogram of each group.
// Because quasi-identifiers are not generalized, aggregate queries over them
// are answered far more accurately than from a generalized release, while the
// attacker's posterior about any individual's sensitive value is bounded by
// 1/L.
// The bucket rounds are planned first from the sensitive-value counts alone
// (cheap and inherently sequential); given the plan, each round's record
// assignment and each group's QIT slice are independent, so both are filled
// by a bounded worker pool (Config.Workers) with output identical for every
// worker count.
package anatomy

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/parallel"
)

// Common errors.
var (
	// ErrConfig is returned for invalid configurations.
	ErrConfig = errors.New("anatomy: invalid configuration")
	// ErrEligibility is returned when the sensitive distribution makes an
	// l-diverse bucketization impossible (some value exceeds n/l of the
	// records).
	ErrEligibility = errors.New("anatomy: sensitive distribution violates the l-eligibility condition")
)

// Config controls an Anatomy run.
type Config struct {
	// L is the required number of distinct sensitive values per group.
	L int
	// Sensitive names the sensitive attribute; when empty the first
	// sensitive column of the schema is used.
	Sensitive string
	// QuasiIdentifiers lists the columns published in the QIT; when empty
	// the schema's quasi-identifier columns are used.
	QuasiIdentifiers []string
	// Workers bounds the pool that assigns records to the planned bucket
	// rounds and materializes the QIT. Zero uses runtime.GOMAXPROCS(0); 1
	// forces a sequential run. The released tables are identical for every
	// count.
	Workers int
	// Progress, when non-nil, receives (done, total) after every bucket
	// round of the group-creation phase — the same unit of work the context
	// is polled at. Done counts the records bucketized so far and total is
	// the table size; a successful run ends with a (total, total) event once
	// the residual records are placed.
	Progress func(done, total int)
}

// Group is one anatomized bucket.
type Group struct {
	// ID is the group identifier published in both tables.
	ID int
	// Rows are the member row indices in the original table.
	Rows []int
	// Counts is the sensitive-value histogram of the group.
	Counts map[string]int
}

// Result holds the two released tables plus the grouping.
type Result struct {
	// QIT is the quasi-identifier table: QI columns plus "group".
	QIT *dataset.Table
	// ST is the sensitive table: "group", sensitive value, "count".
	ST *dataset.Table
	// Groups is the bucketization.
	Groups []Group
	// Sensitive is the sensitive attribute name used.
	Sensitive string
	// QuasiIdentifiers are the QI columns published in the QIT.
	QuasiIdentifiers []string
}

// Anonymize bucketizes t into l-diverse groups with no cancellation; it is
// shorthand for AnonymizeContext with a background context.
func Anonymize(t *dataset.Table, cfg Config) (*Result, error) {
	return AnonymizeContext(context.Background(), t, cfg)
}

// pick is one planned record draw: the pos-th element of a sensitive value's
// row list. Rounds are planned over remaining counts only; the draw position
// mirrors the stack behavior of taking from the end of the list.
type pick struct {
	value string
	pos   int
}

// AnonymizeContext bucketizes t into l-diverse groups. The context is polled
// once per bucket round of the group-creation phase — the algorithm's
// natural unit of work — so a canceled or timed-out run returns ctx.Err()
// after at most one round instead of a result.
func AnonymizeContext(ctx context.Context, t *dataset.Table, cfg Config) (*Result, error) {
	if cfg.L < 2 {
		return nil, fmt.Errorf("%w: l = %d", ErrConfig, cfg.L)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("%w: workers = %d", ErrConfig, cfg.Workers)
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sensitive := cfg.Sensitive
	if sensitive == "" {
		names := t.Schema().SensitiveNames()
		if len(names) == 0 {
			return nil, fmt.Errorf("%w: no sensitive attribute", ErrConfig)
		}
		sensitive = names[0]
	}
	qi := cfg.QuasiIdentifiers
	if len(qi) == 0 {
		qi = t.Schema().QuasiIdentifierNames()
	}
	if len(qi) == 0 {
		return nil, fmt.Errorf("%w: no quasi-identifier attributes", ErrConfig)
	}
	sensCol, err := t.Schema().Index(sensitive)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}

	// Eligibility: no sensitive value may exceed n/l of the records.
	freq, err := t.Frequencies(sensitive)
	if err != nil {
		return nil, err
	}
	for v, n := range freq {
		if float64(n) > float64(t.Len())/float64(cfg.L) {
			return nil, fmt.Errorf("%w: value %q appears %d times in %d records (limit %d for l=%d)",
				ErrEligibility, v, n, t.Len(), t.Len()/cfg.L, cfg.L)
		}
	}

	// Hash records by sensitive value.
	byValue := make(map[string][]int)
	for r := 0; r < t.Len(); r++ {
		row, err := t.Row(r)
		if err != nil {
			return nil, err
		}
		byValue[row[sensCol]] = append(byValue[row[sensCol]], r)
	}

	report := cfg.Progress
	if report == nil {
		report = func(int, int) {}
	}
	bucketized := 0

	// Group-creation phase, planned over counts: while at least L sensitive
	// values have records remaining, one round draws a record from each of
	// the L largest. Planning needs only the remaining counts, so it runs
	// sequentially and cheaply; the record assignment it implies is done by
	// the worker pool below.
	remaining := make(map[string]int, len(byValue))
	for v, rows := range byValue {
		remaining[v] = len(rows)
	}
	var schedule [][]pick
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("anatomy: %w", err)
		}
		report(bucketized, t.Len())
		order := valuesByRemaining(remaining)
		if len(order) < cfg.L {
			break
		}
		round := make([]pick, cfg.L)
		for i := 0; i < cfg.L; i++ {
			v := order[i]
			round[i] = pick{value: v, pos: remaining[v] - 1}
			remaining[v]--
			if remaining[v] == 0 {
				delete(remaining, v)
			}
		}
		schedule = append(schedule, round)
		bucketized += cfg.L
	}
	// Bucket-round assignment: each planned round resolves its draws against
	// the (now read-only) hash lists independently of every other round, so
	// the rounds are assigned by the worker pool. Group g of round g is the
	// same for every worker count because the plan fixes every draw.
	groups, err := parallel.Map(len(schedule), workers, func(g int) (Group, error) {
		grp := Group{ID: g, Rows: make([]int, 0, cfg.L), Counts: make(map[string]int, cfg.L)}
		for _, p := range schedule[g] {
			grp.Rows = append(grp.Rows, byValue[p.value][p.pos])
			grp.Counts[p.value]++
		}
		return grp, nil
	})
	if err != nil {
		return nil, err
	}
	// Residual-assignment phase: each leftover record joins a group that does
	// not yet contain its sensitive value. Values are visited in sorted order
	// (and their rows in table order) so the released row order is
	// deterministic.
	leftover := make([]string, 0, len(remaining))
	for v := range remaining {
		leftover = append(leftover, v)
	}
	sort.Strings(leftover)
	for _, v := range leftover {
		for _, r := range byValue[v][:remaining[v]] {
			placed := false
			for i := range groups {
				if groups[i].Counts[v] == 0 {
					groups[i].Rows = append(groups[i].Rows, r)
					groups[i].Counts[v]++
					placed = true
					break
				}
			}
			if !placed {
				return nil, fmt.Errorf("%w: could not place residual record with value %q", ErrEligibility, v)
			}
		}
	}

	qit, st, err := buildTables(t, qi, sensitive, groups, workers)
	if err != nil {
		return nil, err
	}
	report(t.Len(), t.Len())
	return &Result{
		QIT:              qit,
		ST:               st,
		Groups:           groups,
		Sensitive:        sensitive,
		QuasiIdentifiers: append([]string(nil), qi...),
	}, nil
}

// valuesByRemaining returns sensitive values ordered by decreasing remaining
// count (ties broken lexicographically for determinism).
func valuesByRemaining(remaining map[string]int) []string {
	values := make([]string, 0, len(remaining))
	for v := range remaining {
		values = append(values, v)
	}
	sort.Slice(values, func(i, j int) bool {
		ni, nj := remaining[values[i]], remaining[values[j]]
		if ni != nj {
			return ni > nj
		}
		return values[i] < values[j]
	})
	return values
}

// buildTables materializes the QIT and ST releases. QIT rows follow group
// order with per-group offsets known up front, so each group's slice is
// filled independently by the worker pool.
func buildTables(t *dataset.Table, qi []string, sensitive string, groups []Group, workers int) (*dataset.Table, *dataset.Table, error) {
	qiAttrs := make([]dataset.Attribute, 0, len(qi)+1)
	for _, a := range qi {
		attr, err := t.Schema().ByName(a)
		if err != nil {
			return nil, nil, err
		}
		qiAttrs = append(qiAttrs, attr)
	}
	qiAttrs = append(qiAttrs, dataset.Attribute{Name: "group", Kind: dataset.Insensitive, Type: dataset.Numeric})
	qitSchema, err := dataset.NewSchema(qiAttrs...)
	if err != nil {
		return nil, nil, err
	}

	cols := make([]int, len(qi))
	for i, a := range qi {
		cols[i] = t.Schema().MustIndex(a)
	}
	offsets := make([]int, len(groups)+1)
	for i, g := range groups {
		offsets[i+1] = offsets[i] + len(g.Rows)
	}
	width := len(qi) + 1
	rows := make([]dataset.Row, offsets[len(groups)])
	arena := make([]string, offsets[len(groups)]*width)
	if _, err := parallel.Map(len(groups), workers, func(gi int) (struct{}, error) {
		g := groups[gi]
		id := strconv.Itoa(g.ID)
		for j, r := range g.Rows {
			row, err := t.Row(r)
			if err != nil {
				return struct{}{}, err
			}
			at := offsets[gi] + j
			out := arena[at*width : (at+1)*width : (at+1)*width]
			for ci, c := range cols {
				out[ci] = row[c]
			}
			out[len(qi)] = id
			rows[at] = dataset.Row(out)
		}
		return struct{}{}, nil
	}); err != nil {
		return nil, nil, err
	}
	qit, err := dataset.FromRows(qitSchema, rows)
	if err != nil {
		return nil, nil, err
	}

	stSchema, err := dataset.NewSchema(
		dataset.Attribute{Name: "group", Kind: dataset.Insensitive, Type: dataset.Numeric},
		dataset.Attribute{Name: sensitive, Kind: dataset.Sensitive, Type: dataset.Categorical},
		dataset.Attribute{Name: "count", Kind: dataset.Insensitive, Type: dataset.Numeric},
	)
	if err != nil {
		return nil, nil, err
	}
	var stRows []dataset.Row
	for _, g := range groups {
		values := make([]string, 0, len(g.Counts))
		for v := range g.Counts {
			values = append(values, v)
		}
		sort.Strings(values)
		id := strconv.Itoa(g.ID)
		for _, v := range values {
			stRows = append(stRows, dataset.Row{id, v, strconv.Itoa(g.Counts[v])})
		}
	}
	st, err := dataset.FromRows(stSchema, stRows)
	if err != nil {
		return nil, nil, err
	}
	return qit, st, nil
}

// EstimateCount answers a count query "how many records match the
// quasi-identifier predicate AND have the given sensitive value" from the
// anatomized release: within each group, records matching the predicate are
// assumed to carry each sensitive value in proportion to the group's
// published histogram. The predicate receives the QI values of one QIT row
// in QuasiIdentifiers order.
func (r *Result) EstimateCount(pred func(qi []string) bool, sensitiveValue string) float64 {
	// Row offsets of the QIT follow group order, so walk groups and rows in
	// parallel.
	est := 0.0
	rowIdx := 0
	for _, g := range r.Groups {
		matched := 0
		for range g.Rows {
			row, err := r.QIT.Row(rowIdx)
			rowIdx++
			if err != nil {
				continue
			}
			if pred(row[:len(r.QuasiIdentifiers)]) {
				matched++
			}
		}
		if matched == 0 {
			continue
		}
		size := len(g.Rows)
		est += float64(matched) * float64(g.Counts[sensitiveValue]) / float64(size)
	}
	return est
}
