// Package generalize applies recodings to tables: full-domain generalization
// driven by a lattice node, record suppression, cell suppression, and
// multidimensional (per-group) recoding used by partitioning algorithms such
// as Mondrian and k-member clustering.
package generalize

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/lattice"
)

// ErrNodeArity is returned when a lattice node does not have one level per
// quasi-identifier attribute.
var ErrNodeArity = errors.New("generalize: node arity does not match attribute count")

// FullDomain applies the full-domain recoding described by node: the i-th
// quasi-identifier attribute in attrs is generalized to level node[i] using
// its hierarchy. All other columns are left untouched. The input table is not
// modified. Each distinct value is generalized once (see recodeLevel).
func FullDomain(t *dataset.Table, attrs []string, hs *hierarchy.Set, node lattice.Node) (*dataset.Table, error) {
	if len(attrs) != len(node) {
		return nil, fmt.Errorf("%w: %d attributes, %d levels", ErrNodeArity, len(attrs), len(node))
	}
	out := t.Clone()
	for i, attr := range attrs {
		if node[i] == 0 {
			continue
		}
		h, err := hs.Get(attr)
		if err != nil {
			return nil, err
		}
		col, err := t.Schema().Index(attr)
		if err != nil {
			return nil, err
		}
		cc, _ := t.CodedColumn(col)
		if cc, err = recodeLevel(cc, attr, h, node[i]); err != nil {
			return nil, err
		}
		if err := out.SetColumn(col, cc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// recodeLevel returns column cc of attribute attr generalized to level by h.
// Generalization is value-deterministic: one call per source code, at its
// first row, so a failure names the row a row scan would.
func recodeLevel(cc *dataset.CodedColumn, attr string, h hierarchy.Hierarchy, level int) (*dataset.CodedColumn, error) {
	dict, codes, err := recodeColumn(slices.Clone(cc.Codes), cc.Cardinality(), func(code uint32, r int) (string, error) {
		g, err := h.Generalize(cc.Value(code), level)
		if err != nil {
			return "", fmt.Errorf("generalize: row %d attribute %q: %w", r, attr, err)
		}
		return g, nil
	})
	if err != nil {
		return nil, err
	}
	return dataset.NewCodedColumn(dict, codes)
}

// recodeColumn turns per-row keys in [0, nkeys) into a column coded in
// first-appearance order, ready for Table.SetCodedColumn: row i holds
// value(keys[i], i), and value is called once per distinct key, at the key's
// first row. keys is overwritten with the codes and returned.
func recodeColumn(keys []uint32, nkeys int, value func(key uint32, row int) (string, error)) ([]string, []uint32, error) {
	final := make([]uint32, nkeys) // the key's output code plus one; zero: unassigned
	index := make(map[string]uint32)
	var dict []string
	for i, k := range keys {
		c := final[k]
		if c == 0 {
			v, err := value(k, i)
			if err != nil {
				return nil, nil, err
			}
			code, ok := index[v]
			if !ok {
				code = uint32(len(dict))
				dict = append(dict, v)
				index[v] = code
			}
			c = code + 1
			final[k] = c
		}
		keys[i] = c - 1
	}
	return dict, keys, nil
}

// SuppressRows returns a copy of the table with the given row indices
// removed. The indices of all other rows shift accordingly.
func SuppressRows(t *dataset.Table, drop []int) (*dataset.Table, error) {
	dropped := make(map[int]bool, len(drop))
	for _, i := range drop {
		if i < 0 || i >= t.Len() {
			return nil, fmt.Errorf("generalize: suppress row %d out of range", i)
		}
		dropped[i] = true
	}
	keep := make([]int, 0, t.Len()-len(dropped))
	for i := 0; i < t.Len(); i++ {
		if !dropped[i] {
			keep = append(keep, i)
		}
	}
	return t.Select(keep)
}

// SuppressCells overwrites the named columns of the given rows with the
// suppression marker "*". It modifies a copy and returns it; each column is
// written once through Table.SetCodedColumn.
func SuppressCells(t *dataset.Table, rows []int, attrs []string) (*dataset.Table, error) {
	out := t.Clone()
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		c, err := t.Schema().Index(a)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	for _, r := range rows {
		if r < 0 || r >= t.Len() {
			return nil, fmt.Errorf("%w: %d (table has %d rows)", dataset.ErrRowIndex, r, t.Len())
		}
	}
	for _, c := range cols {
		cc, err := out.CodedColumn(c)
		if err != nil {
			return nil, err
		}
		// Keys are the source codes, plus one extra key for suppressed cells.
		hidden := uint32(cc.Cardinality())
		keys := slices.Clone(cc.Codes)
		for _, r := range rows {
			keys[r] = hidden
		}
		dict, codes, _ := recodeColumn(keys, cc.Cardinality()+1, func(k uint32, _ int) (string, error) {
			if k == hidden {
				return dataset.SuppressedValue, nil
			}
			return cc.Value(k), nil
		})
		if err := out.SetCodedColumn(c, dict, codes); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// GroupSummary describes the recoded quasi-identifier values shared by one
// group of rows under multidimensional recoding.
type GroupSummary struct {
	// Rows are the member row indices in the original table.
	Rows []int
	// Values holds one recoded value per quasi-identifier attribute, in the
	// order the attrs argument was given.
	Values []string
}

// RecodeGroups performs multidimensional (per-group) recoding: every group of
// row indices becomes one equivalence class whose quasi-identifier values are
// replaced by a summary of the group's values — a "[lo-hi)" interval for
// numeric attributes (or the single value when all members agree) and the
// lowest common generalization for categorical attributes (falling back to a
// brace-enclosed value set when no hierarchy is available). Rows outside
// every group keep their values.
//
// Recoding runs over the input's dictionary-coded columns: a group's summary
// is computed from its distinct codes in first-occurrence order, numeric
// spans read those codes' numbers from the column's per-code numeric
// reading, and hierarchy generalizations are
// memoized per (code, level). Each quasi-identifier column of the release is
// written once through Table.SetCodedColumn, so later grouping and
// measurement passes reuse the installed codes.
//
// It returns the recoded table together with the per-group summaries.
func RecodeGroups(t *dataset.Table, attrs []string, hs *hierarchy.Set, groups [][]int) (*dataset.Table, []GroupSummary, error) {
	schema := t.Schema()
	cols := make([]int, len(attrs))
	numeric := make([]bool, len(attrs))
	for i, a := range attrs {
		c, err := schema.Index(a)
		if err != nil {
			return nil, nil, err
		}
		cols[i] = c
		attr, _ := schema.ByName(a)
		numeric[i] = attr.Type == dataset.Numeric
	}

	// Validate every group up front and record which group owns each row.
	n := t.Len()
	rowGroup := make([]int32, n)
	for i := range rowGroup {
		rowGroup[i] = -1
	}
	covered := 0
	for gi, g := range groups {
		if len(g) == 0 {
			return nil, nil, fmt.Errorf("generalize: group %d is empty", gi)
		}
		for _, r := range g {
			if r < 0 || r >= n {
				return nil, nil, fmt.Errorf("generalize: group %d references row %d out of range", gi, r)
			}
		}
		for _, r := range g {
			if rowGroup[r] >= 0 {
				return nil, nil, fmt.Errorf("generalize: row %d appears in more than one group", r)
			}
			rowGroup[r] = int32(gi)
		}
		covered += len(g)
	}

	// Member rows and summary values are carved out of two shared arenas.
	summaries := make([]GroupSummary, len(groups))
	rowArena := make([]int, 0, covered)
	valueArena := make([]string, len(groups)*len(attrs))
	for gi, g := range groups {
		start := len(rowArena)
		rowArena = append(rowArena, g...)
		v := valueArena[gi*len(attrs) : (gi+1)*len(attrs) : (gi+1)*len(attrs)]
		summaries[gi] = GroupSummary{Rows: rowArena[start:len(rowArena):len(rowArena)], Values: v}
	}

	out := t.Clone()
	for ai, attr := range attrs {
		rc, err := newColumnRecoder(t, cols[ai], numeric[ai])
		if err != nil {
			return nil, nil, err
		}
		if hs != nil && hs.Has(attr) {
			if rc.h, err = hs.Get(attr); err != nil {
				return nil, nil, err
			}
		}
		for gi, g := range groups {
			summaries[gi].Values[ai] = rc.summarize(g)
		}
		dict, codes := rc.release(rowGroup, summaries, ai)
		if err := out.SetCodedColumn(cols[ai], dict, codes); err != nil {
			return nil, nil, err
		}
	}
	return out, summaries, nil
}

// columnRecoder summarizes groups of one quasi-identifier column over its
// dictionary codes and assembles the recoded column.
type columnRecoder struct {
	cc *dataset.CodedColumn
	// st holds the column's per-code numeric reading; nil for categorical
	// attributes.
	st *dataset.ColumnStats
	// h is the attribute's hierarchy; nil when there is none.
	h hierarchy.Hierarchy

	// mark[code] == stamp when code was already seen in the current group;
	// distinct lists the group's distinct codes in first-occurrence order.
	mark     []int32
	stamp    int32
	distinct []uint32

	// integral[code] caches isIntegral per code (0 unknown, 1 yes, 2 no);
	// gen[level-1][code] and genState (0 unknown, 1 ok, 2 error) memoize
	// hierarchy generalizations per (code, level).
	integral []uint8
	gen      [][]string
	genState [][]uint8
}

func newColumnRecoder(t *dataset.Table, col int, numeric bool) (*columnRecoder, error) {
	cc, err := t.CodedColumn(col)
	if err != nil {
		return nil, err
	}
	rc := &columnRecoder{cc: cc, mark: make([]int32, cc.Cardinality())}
	if numeric {
		rc.st = cc.Stats()
		rc.integral = make([]uint8, cc.Cardinality())
	}
	return rc, nil
}

// summarize recodes one group's values of the column into a single released
// value.
func (rc *columnRecoder) summarize(g []int) string {
	rc.stamp++
	rc.distinct = rc.distinct[:0]
	for _, r := range g {
		code := rc.cc.Codes[r]
		if rc.mark[code] != rc.stamp {
			rc.mark[code] = rc.stamp
			rc.distinct = append(rc.distinct, code)
		}
	}
	if len(rc.distinct) == 1 {
		return rc.cc.Dict[rc.distinct[0]]
	}
	if rc.st != nil {
		if lo, hi, ok := rc.numericSpan(); ok {
			// Intervals are half-open; widen the upper bound to include the max.
			return hierarchy.FormatInterval(lo, hi+1, rc.isIntegral())
		}
	}
	if rc.h != nil {
		if g, ok := rc.lowestCommonGeneralization(); ok {
			return g
		}
	}
	return rc.valueSet()
}

// numericSpan returns the extrema of the group's values; ok is false when
// some value does not parse as a number.
func (rc *columnRecoder) numericSpan() (lo, hi float64, ok bool) {
	for i, code := range rc.distinct {
		if !rc.st.Parsed[code] {
			return 0, 0, false
		}
		f := rc.st.Num[code]
		if i == 0 || f < lo {
			lo = f
		}
		if i == 0 || f > hi {
			hi = f
		}
	}
	return lo, hi, true
}

// isIntegral reports whether no group value is spelled with a fraction or an
// exponent, so the interval prints integer bounds.
func (rc *columnRecoder) isIntegral() bool {
	for _, code := range rc.distinct {
		if rc.integral[code] == 0 {
			rc.integral[code] = 1
			if strings.ContainsAny(rc.cc.Dict[code], ".eE") {
				rc.integral[code] = 2
			}
		}
		if rc.integral[code] == 2 {
			return false
		}
	}
	return true
}

// lowestCommonGeneralization finds the smallest hierarchy level at which all
// group values share a generalization, returning that shared value. Values
// are generalized in first-occurrence order, so a value whose generalization
// fails is reached exactly when a scan over every member would reach it.
func (rc *columnRecoder) lowestCommonGeneralization() (string, bool) {
	for level := 1; level <= rc.h.MaxLevel(); level++ {
		g0, ok := rc.generalize(rc.distinct[0], level)
		if !ok {
			return "", false
		}
		same := true
		for _, code := range rc.distinct[1:] {
			g, ok := rc.generalize(code, level)
			if !ok {
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

// generalize returns the memoized generalization of code at level.
func (rc *columnRecoder) generalize(code uint32, level int) (string, bool) {
	if rc.gen == nil {
		rc.gen = make([][]string, rc.h.MaxLevel())
		rc.genState = make([][]uint8, rc.h.MaxLevel())
	}
	if rc.gen[level-1] == nil {
		rc.gen[level-1] = make([]string, rc.cc.Cardinality())
		rc.genState[level-1] = make([]uint8, rc.cc.Cardinality())
	}
	switch rc.genState[level-1][code] {
	case 1:
		return rc.gen[level-1][code], true
	case 2:
		return "", false
	}
	g, err := rc.h.Generalize(rc.cc.Dict[code], level)
	if err != nil {
		rc.genState[level-1][code] = 2
		return "", false
	}
	rc.gen[level-1][code] = g
	rc.genState[level-1][code] = 1
	return g, true
}

// valueSet renders the group's distinct values as a sorted brace-enclosed
// set.
func (rc *columnRecoder) valueSet() string {
	vals := make([]string, len(rc.distinct))
	for i, code := range rc.distinct {
		vals[i] = rc.cc.Dict[code]
	}
	sort.Strings(vals)
	return "{" + strings.Join(vals, ",") + "}"
}

// release assembles the recoded column: rows in a group take the group's
// summary value (summaries[g].Values[ai]), other rows keep their value. The
// dictionary is interned in first-appearance row order, matching a fresh
// encoding of the written cells; each group and each source code is looked
// up in the intern map once.
func (rc *columnRecoder) release(rowGroup []int32, summaries []GroupSummary, ai int) ([]string, []uint32) {
	numGroups := uint32(len(summaries))
	// Keys [0, numGroups) are groups; numGroups+code is an ungrouped source
	// code.
	keys := make([]uint32, len(rowGroup))
	for i, g := range rowGroup {
		if g >= 0 {
			keys[i] = uint32(g)
		} else {
			keys[i] = numGroups + rc.cc.Codes[i]
		}
	}
	dict, codes, _ := recodeColumn(keys, int(numGroups)+rc.cc.Cardinality(), func(k uint32, _ int) (string, error) {
		if k < numGroups {
			return summaries[k].Values[ai], nil
		}
		return rc.cc.Dict[k-numGroups], nil
	})
	return dict, codes
}
