package generalize

// The string implementation of RecodeGroups that the coded one replaced,
// kept as the differential-test oracle: it reads every member cell
// as a string, parses and generalizes per cell, and writes the release one
// string cell at a time into a copy of the rows.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/hierarchy"
)

// RecodeGroupsOracle exposes the reference implementation to the external
// differential tests.
var RecodeGroupsOracle = recodeGroupsOracle

// recodeGroupsOracle is the reference RecodeGroups.
func recodeGroupsOracle(t *dataset.Table, attrs []string, hs *hierarchy.Set, groups [][]int) (*dataset.Table, error) {
	schema := t.Schema()
	cols := make([]int, len(attrs))
	numeric := make([]bool, len(attrs))
	for i, a := range attrs {
		c, err := schema.Index(a)
		if err != nil {
			return nil, err
		}
		cols[i] = c
		attr, _ := schema.ByName(a)
		numeric[i] = attr.Type == dataset.Numeric
	}

	rows := t.Rows()
	seen := make([]bool, t.Len())
	for gi, g := range groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("generalize: group %d is empty", gi)
		}
		values := make([]string, len(attrs))
		for ai := range attrs {
			vals := make([]string, 0, len(g))
			for _, r := range g {
				if r < 0 || r >= t.Len() {
					return nil, fmt.Errorf("generalize: group %d references row %d out of range", gi, r)
				}
				v, err := t.Value(r, cols[ai])
				if err != nil {
					return nil, err
				}
				vals = append(vals, v)
			}
			summary, err := oracleSummarize(attrs[ai], vals, numeric[ai], hs)
			if err != nil {
				return nil, err
			}
			values[ai] = summary
		}
		for _, r := range g {
			if seen[r] {
				return nil, fmt.Errorf("generalize: row %d appears in more than one group", r)
			}
			seen[r] = true
			for ai := range attrs {
				rows[r][cols[ai]] = values[ai]
			}
		}
	}
	out, err := dataset.FromRows(schema, rows)
	if err != nil {
		return nil, err
	}
	out.SetScanWorkers(t.ScanWorkers())
	return out, nil
}

// oracleSummarize recodes one attribute's group values into a single released value.
func oracleSummarize(attr string, vals []string, isNumeric bool, hs *hierarchy.Set) (string, error) {
	if oracleAllEqual(vals) {
		return vals[0], nil
	}
	if isNumeric {
		lo, hi, ok := oracleNumericSpan(vals)
		if ok {
			// Intervals are half-open; widen the upper bound to include the max.
			return hierarchy.FormatInterval(lo, hi+1, oracleIsIntegral(vals)), nil
		}
	}
	if hs != nil && hs.Has(attr) {
		h, err := hs.Get(attr)
		if err != nil {
			return "", err
		}
		if g, ok := oracleLCG(h, vals); ok {
			return g, nil
		}
	}
	return oracleValueSet(vals), nil
}

func oracleAllEqual(vals []string) bool {
	for _, v := range vals[1:] {
		if v != vals[0] {
			return false
		}
	}
	return true
}

func oracleNumericSpan(vals []string) (lo, hi float64, ok bool) {
	for i, v := range vals {
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return 0, 0, false
		}
		if i == 0 || f < lo {
			lo = f
		}
		if i == 0 || f > hi {
			hi = f
		}
	}
	return lo, hi, true
}

func oracleIsIntegral(vals []string) bool {
	for _, v := range vals {
		if strings.ContainsAny(v, ".eE") {
			return false
		}
	}
	return true
}

// oracleLCG finds the smallest hierarchy level at which all
// values share a generalization, returning that shared value.
func oracleLCG(h hierarchy.Hierarchy, vals []string) (string, bool) {
	for level := 1; level <= h.MaxLevel(); level++ {
		g0, err := h.Generalize(vals[0], level)
		if err != nil {
			return "", false
		}
		same := true
		for _, v := range vals[1:] {
			g, err := h.Generalize(v, level)
			if err != nil {
				return "", false
			}
			if g != g0 {
				same = false
				break
			}
		}
		if same {
			return g0, true
		}
	}
	return "", false
}

// oracleValueSet renders distinct values as a sorted brace-enclosed set.
func oracleValueSet(vals []string) string {
	set := make(map[string]struct{}, len(vals))
	for _, v := range vals {
		set[v] = struct{}{}
	}
	distinct := make([]string, 0, len(set))
	for v := range set {
		distinct = append(distinct, v)
	}
	sort.Strings(distinct)
	return "{" + strings.Join(distinct, ",") + "}"
}
