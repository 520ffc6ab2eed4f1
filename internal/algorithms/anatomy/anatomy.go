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
package anatomy

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
)

// Common errors. Each carries its engine class (engine.ErrConfig or
// engine.ErrUnsatisfiable), so errors.Is matches either.
var (
	// ErrConfig is returned for invalid configurations.
	ErrConfig = engine.ConfigError(errors.New("anatomy: invalid configuration"))
	// ErrEligibility is returned when the sensitive distribution makes an
	// l-diverse bucketization impossible (some value exceeds n/l of the
	// records).
	ErrEligibility = engine.UnsatisfiableError(errors.New("anatomy: sensitive distribution violates the l-eligibility condition"))
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

// AnonymizeContext bucketizes t into l-diverse groups. The context is polled
// once per bucket round of the group-creation phase — the algorithm's
// natural unit of work — so a canceled or timed-out run returns ctx.Err()
// after at most one round instead of a result.
func AnonymizeContext(ctx context.Context, t *dataset.Table, cfg Config) (*Result, error) {
	if cfg.L < 2 {
		return nil, fmt.Errorf("%w: l = %d", ErrConfig, cfg.L)
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
	sens, err := t.CodedColumnByName(sensitive)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}

	// Eligibility: no sensitive value may exceed n/l of the records.
	stats := sens.Stats()
	for _, code := range stats.Lex {
		if n := stats.Counts[code]; float64(n) > float64(t.Len())/float64(cfg.L) {
			return nil, fmt.Errorf("%w: value %q appears %d times in %d records (limit %d for l=%d)",
				ErrEligibility, sens.Dict[code], n, t.Len(), t.Len()/cfg.L, cfg.L)
		}
	}

	// Hash records by sensitive value, reading the column's codes.
	byCode := make([][]int, sens.Cardinality())
	for r, code := range sens.Codes {
		byCode[code] = append(byCode[code], r)
	}
	byValue := make(map[string][]int, len(byCode))
	for code, rows := range byCode {
		if len(rows) > 0 {
			byValue[sens.Dict[code]] = rows
		}
	}

	report := cfg.Progress
	if report == nil {
		report = func(int, int) {}
	}
	bucketized := 0

	// Group-creation phase: while at least L sensitive values have records
	// remaining, one round forms a group from the last remaining record of
	// each of the L values with the most records left.
	remaining := make(map[string]int, len(byValue))
	for v, rows := range byValue {
		remaining[v] = len(rows)
	}
	var groups []Group
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("anatomy: %w", err)
		}
		report(bucketized, t.Len())
		order := valuesByRemaining(remaining)
		if len(order) < cfg.L {
			break
		}
		grp := Group{ID: len(groups), Rows: make([]int, 0, cfg.L), Counts: make(map[string]int, cfg.L)}
		for _, v := range order[:cfg.L] {
			remaining[v]--
			grp.Rows = append(grp.Rows, byValue[v][remaining[v]])
			grp.Counts[v]++
			if remaining[v] == 0 {
				delete(remaining, v)
			}
		}
		groups = append(groups, grp)
		bucketized += cfg.L
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

	qit, st, err := buildTables(t, qi, sensitive, groups)
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
	slices.SortFunc(values, func(a, b string) int {
		if c := cmp.Compare(remaining[b], remaining[a]); c != 0 {
			return c
		}
		return strings.Compare(a, b)
	})
	return values
}

// buildTables materializes the QIT and ST releases. The QIT is the source's
// QI columns with their rows reordered into group order, plus a coded group
// column: no cell is copied as a string.
func buildTables(t *dataset.Table, qi []string, sensitive string, groups []Group) (*dataset.Table, *dataset.Table, error) {
	proj, err := t.Project(qi...)
	if err != nil {
		return nil, nil, err
	}
	qitSchema, err := dataset.NewSchema(append(proj.Schema().Attributes(),
		dataset.Attribute{Name: "group", Kind: dataset.Insensitive, Type: dataset.Numeric})...)
	if err != nil {
		return nil, nil, err
	}
	order := make([]int, 0, t.Len())
	ids := make([]string, len(groups))
	codes := make([]uint32, 0, t.Len())
	for gi, g := range groups {
		ids[gi] = strconv.Itoa(g.ID)
		order = append(order, g.Rows...)
		for range g.Rows {
			codes = append(codes, uint32(gi))
		}
	}
	sel, err := proj.Select(order)
	if err != nil {
		return nil, nil, err
	}
	cols := make([]*dataset.CodedColumn, len(qi)+1)
	for j := range qi {
		if cols[j], err = sel.CodedColumn(j); err != nil {
			return nil, nil, err
		}
	}
	if cols[len(qi)], err = dataset.NewCodedColumn(ids, codes); err != nil {
		return nil, nil, err
	}
	qit, err := dataset.FromColumns(qitSchema, cols)
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
	for gi, g := range groups {
		values := make([]string, 0, len(g.Counts))
		for v := range g.Counts {
			values = append(values, v)
		}
		sort.Strings(values)
		for _, v := range values {
			stRows = append(stRows, dataset.Row{ids[gi], v, strconv.Itoa(g.Counts[v])})
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
// in QuasiIdentifiers order, in a slice it must not retain.
func (r *Result) EstimateCount(pred func(qi []string) bool, sensitiveValue string) float64 {
	cols := make([]*dataset.CodedColumn, len(r.QuasiIdentifiers))
	for j := range cols {
		// The QIT's leading columns are the QI columns, so j is in range.
		cols[j], _ = r.QIT.CodedColumn(j)
	}
	qi := make([]string, len(cols))
	// QIT rows follow group order, so walk groups and rows together.
	est := 0.0
	row := 0
	for _, g := range r.Groups {
		matched := 0
		for range g.Rows {
			for j, cc := range cols {
				qi[j] = cc.Dict[cc.Codes[row]]
			}
			row++
			if pred(qi) {
				matched++
			}
		}
		if matched > 0 {
			est += float64(matched) * float64(g.Counts[sensitiveValue]) / float64(len(g.Rows))
		}
	}
	return est
}
