package dataset

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// This file implements a Table's storage: one dictionary-coded column per
// attribute. A CodedColumn interns every distinct value of its column as a
// dense uint32 code in first-appearance (row) order, with the values'
// byte-lexicographic ranks; the cells of the table are Dict[Codes[i]] and
// nothing else. Every fact about a value is derived once per dictionary
// code — its rank, its count and numeric reading (ColumnStats), its entry
// in the reverse index — and a row reaches it through Codes[row]. Hot
// paths — equivalence-class grouping, Mondrian partitioning, query
// evaluation, information-loss metrics — compare codes instead of strings
// and read numbers per code, so no column keeps a per-row copy of its
// cells.
//
// Columns are immutable once installed. Writers — SetCodedColumn,
// AppendTable, SetValue — build a new column and swap it in, so a column a
// caller holds never changes, and derived tables (Clone, Project,
// WithSchema) share the source's column objects. Everything a column
// computes lazily (its value distribution with the numeric reading, and its
// reverse index) is built once under a sync.Once and shared by every table
// holding it.

// CodedColumn is one dictionary-encoded column: every distinct string value
// is interned as a dense uint32 code in first-appearance (row) order, which
// makes the encoding deterministic for a given table content.
type CodedColumn struct {
	// Codes holds one dictionary code per row.
	Codes []uint32
	// Dict maps codes back to values; Dict[Codes[i]] is the cell of row i.
	Dict []string
	// index maps values back to codes. Builders that intern values fill it
	// as a side effect; other columns (snapshot-loaded, appended) leave it
	// nil and Code() builds it on first use (indexOnce).
	index     map[string]uint32
	indexOnce sync.Once
	// ranks[code] is the position of Dict[code] in byte-lexicographic order
	// of the dictionary; grouping uses it to order classes without comparing
	// strings.
	ranks []uint32
	// stats is the column's value distribution, built on first use
	// (statsOnce): the column is immutable, so one O(rows) scan serves every
	// later frequency, domain and privacy-criterion query.
	stats     *ColumnStats
	statsOnce sync.Once
}

// newCodedColumn returns the column over (dict, codes) with its ranks
// computed. index may be nil.
func newCodedColumn(dict []string, codes []uint32, index map[string]uint32) *CodedColumn {
	cc := &CodedColumn{Codes: codes, Dict: dict, index: index}
	cc.buildRanks()
	return cc
}

// colBuilder interns one column's cells in first-appearance order and
// memoizes each distinct value's fingerprint cell hash, so a builder loop
// can fold the row-content hash without hashing repeated values.
type colBuilder struct {
	dict  []string
	codes []uint32
	index map[string]uint32
	hash  []uint64
}

func (b *colBuilder) init(rows int) {
	b.codes = make([]uint32, 0, rows)
	b.index = make(map[string]uint32)
}

// add appends one cell and returns its fingerprint cell hash. New values are
// cloned, so the dictionary never retains a caller's larger backing string.
func (b *colBuilder) add(v string) uint64 {
	code, ok := b.index[v]
	if !ok {
		code = uint32(len(b.dict))
		v = strings.Clone(v)
		b.dict = append(b.dict, v)
		b.index[v] = code
		b.hash = append(b.hash, hashCell(v))
	}
	b.codes = append(b.codes, code)
	return b.hash[code]
}

func (b *colBuilder) column() *CodedColumn { return newCodedColumn(b.dict, b.codes, b.index) }

// ColumnStats is the value distribution of a CodedColumn and its numeric
// reading. Lex and Numeric list only codes that occur in the column
// (nonzero count), so dictionary entries no row holds never appear in a
// domain, and the numeric summary ranges over occurring codes only.
type ColumnStats struct {
	// Counts[code] is the number of rows holding code.
	Counts []int
	// Lex lists the occurring codes in byte-lexicographic order of their
	// values.
	Lex []uint32
	// Numeric lists the occurring codes in ascending numeric order of their
	// values (ties by Lex position), or is nil when some occurring value
	// does not parse as a number.
	Numeric []uint32
	// Num[code] is the number Dict[code] reads as — the value with
	// surrounding whitespace trimmed, parsed by strconv.ParseFloat — and is
	// meaningful only where Parsed[code]. "NaN" parses. Codes no row holds
	// are never parsed. Suppressed cells and intervals do not parse, so a
	// numeric reader skips them by their code.
	Num    []float64
	Parsed []bool
	// AnyParsed reports whether some row holds a value that parses. Min and
	// Max are the extrema of those values, NaN excluded; when none remains
	// Min is +Inf and Max is -Inf.
	AnyParsed bool
	Min, Max  float64
}

// Stats returns the column's value distribution, computing it once. The
// result is shared and must not be modified.
func (c *CodedColumn) Stats() *ColumnStats {
	c.statsOnce.Do(c.buildStats)
	return c.stats
}

func (c *CodedColumn) buildStats() {
	st := &ColumnStats{
		Counts: make([]int, len(c.Dict)),
		Num:    make([]float64, len(c.Dict)),
		Parsed: make([]bool, len(c.Dict)),
		Min:    math.Inf(1),
		Max:    math.Inf(-1),
	}
	for _, code := range c.Codes {
		st.Counts[code]++
	}
	for code, n := range st.Counts {
		if n > 0 {
			st.Lex = append(st.Lex, uint32(code))
		}
	}
	slices.SortFunc(st.Lex, func(a, b uint32) int { return cmp.Compare(c.ranks[a], c.ranks[b]) })
	all := true
	for _, code := range st.Lex {
		f, err := strconv.ParseFloat(strings.TrimSpace(c.Dict[code]), 64)
		if err != nil {
			all = false
			continue
		}
		st.Num[code], st.Parsed[code], st.AnyParsed = f, true, true
		// NaN compares false both ways, so it never becomes an extremum.
		if f < st.Min {
			st.Min = f
		}
		if f > st.Max {
			st.Max = f
		}
	}
	if all {
		st.Numeric = slices.Clone(st.Lex)
		slices.SortStableFunc(st.Numeric, func(a, b uint32) int { return cmp.Compare(st.Num[a], st.Num[b]) })
	}
	c.stats = st
}

// Len returns the number of rows in the column.
func (c *CodedColumn) Len() int { return len(c.Codes) }

// Cardinality returns the number of distinct values in the column.
func (c *CodedColumn) Cardinality() int { return len(c.Dict) }

// Value returns the string value for a code.
func (c *CodedColumn) Value(code uint32) string { return c.Dict[code] }

// Code returns the dictionary code of a value and whether the value occurs in
// the column.
func (c *CodedColumn) Code(value string) (uint32, bool) {
	c.indexOnce.Do(c.ensureIndex)
	code, ok := c.index[value]
	return code, ok
}

// ensureIndex builds the value→code map for columns created without one.
func (c *CodedColumn) ensureIndex() {
	if c.index != nil {
		return
	}
	idx := make(map[string]uint32, len(c.Dict))
	for code, v := range c.Dict {
		idx[v] = uint32(code)
	}
	c.index = idx
}

// CodedColumn returns column col. Codes are assigned in first-appearance
// order, so the encoding is deterministic for a given table content. The
// returned column is shared and read-only.
func (t *Table) CodedColumn(col int) (*CodedColumn, error) {
	if col < 0 || col >= len(t.cols) {
		return nil, fmt.Errorf("dataset: column index %d out of range", col)
	}
	return t.cols[col], nil
}

// CodedColumnByName is CodedColumn keyed by attribute name.
func (t *Table) CodedColumnByName(name string) (*CodedColumn, error) {
	col, err := t.schema.Index(name)
	if err != nil {
		return nil, err
	}
	return t.CodedColumn(col)
}

// SetCodedColumn replaces column col with dict[codes[i]] in every row i. dict
// must list distinct values in first-appearance order of codes, each used by
// at least one row — the encoding every table column has — otherwise an
// error is returned and the table is unchanged. The table takes ownership of
// both slices; callers must not modify them afterwards.
func (t *Table) SetCodedColumn(col int, dict []string, codes []uint32) error {
	if err := t.checkColumn(col, len(codes)); err != nil {
		return err
	}
	cc, err := NewCodedColumn(dict, codes)
	if err != nil {
		return err
	}
	t.cols[col] = cc
	t.hash.Store(nil)
	return nil
}

// SetColumn replaces column col with cc. Columns are immutable, so cc may be
// installed in any number of tables with the same row count.
func (t *Table) SetColumn(col int, cc *CodedColumn) error {
	if err := t.checkColumn(col, cc.Len()); err != nil {
		return err
	}
	t.cols[col] = cc
	t.hash.Store(nil)
	return nil
}

// checkColumn validates a write of a column with rows rows to column col.
func (t *Table) checkColumn(col, rows int) error {
	if _, err := t.CodedColumn(col); err != nil {
		return err
	}
	if rows != t.n {
		return fmt.Errorf("dataset: coded column has %d rows, table has %d", rows, t.n)
	}
	return nil
}

// NewCodedColumn returns the column holding dict[codes[i]] in row i, with the
// encoding rules of SetCodedColumn. The column takes ownership of both slices.
func NewCodedColumn(dict []string, codes []uint32) (*CodedColumn, error) {
	next := uint32(0)
	for i, code := range codes {
		if code == next {
			next++
		} else if code > next {
			return nil, fmt.Errorf("dataset: code %d of row %d is not in first-appearance order", code, i)
		}
	}
	if int(next) != len(dict) {
		return nil, fmt.Errorf("dataset: dictionary has %d values, codes use %d", len(dict), next)
	}
	index := make(map[string]uint32, len(dict))
	for code, v := range dict {
		if _, dup := index[v]; dup {
			return nil, fmt.Errorf("dataset: dictionary repeats value %q", v)
		}
		index[v] = uint32(code)
	}
	return newCodedColumn(dict, codes, index), nil
}

// buildRanks computes the byte-lexicographic rank of every code.
func (c *CodedColumn) buildRanks() {
	order := make([]uint32, len(c.Dict))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int { return strings.Compare(c.Dict[a], c.Dict[b]) })
	c.ranks = make([]uint32, len(c.Dict))
	for pos, code := range order {
		c.ranks[code] = uint32(pos)
	}
}

// lexOrder returns the column's codes in byte-lexicographic order of their
// values: the inverse of ranks.
func (c *CodedColumn) lexOrder() []uint32 {
	order := make([]uint32, len(c.ranks))
	for code, rank := range c.ranks {
		order[rank] = uint32(code)
	}
	return order
}

// appendColumn returns c extended by the cells of o. Old codes are copied as
// integers; o's values are looked up in c's dictionary by binary search over
// c's rank order, and values c lacks are appended to the dictionary in
// first-appearance order, exactly where a fresh encoding of the
// concatenated cells would put them. The ranks are merged rather than
// re-sorted, so no old value is compared more than O(log dict) times.
func (c *CodedColumn) appendColumn(o *CodedColumn) *CodedColumn {
	order := c.lexOrder()
	dict := slices.Clip(c.Dict)
	codes := make([]uint32, len(c.Codes), len(c.Codes)+len(o.Codes))
	copy(codes, c.Codes)
	remap := make([]uint32, len(o.Dict))
	seen := make([]bool, len(o.Dict))
	var added []uint32
	for _, oc := range o.Codes {
		if !seen[oc] {
			seen[oc] = true
			v := o.Dict[oc]
			pos, found := c.search(order, v)
			if found {
				remap[oc] = order[pos]
			} else {
				remap[oc] = uint32(len(dict))
				added = append(added, remap[oc])
				dict = append(dict, strings.Clone(v))
			}
		}
		codes = append(codes, remap[oc])
	}
	out := &CodedColumn{Codes: codes, Dict: dict}
	if len(added) == 0 {
		out.ranks = c.ranks
		return out
	}
	// Merge the old lexicographic order with the sorted new values.
	slices.SortFunc(added, func(a, b uint32) int { return strings.Compare(dict[a], dict[b]) })
	out.ranks = make([]uint32, len(dict))
	i, j := 0, 0
	for pos := range out.ranks {
		var code uint32
		if j == len(added) || (i < len(order) && dict[order[i]] < dict[added[j]]) {
			code, i = order[i], i+1
		} else {
			code, j = added[j], j+1
		}
		out.ranks[code] = uint32(pos)
	}
	return out
}

// selectRows returns the column holding the cells of rows idx, in order,
// where a row of -1 holds pad. The result is encoded exactly as a fresh
// build over the same cells: codes in first-appearance order, and a pad
// equal to a value of c shares that value's code. Ranks follow from the
// source's, since the kept codes keep their relative lexicographic order;
// a pad c lacks is placed among them by one binary search.
func (c *CodedColumn) selectRows(idx []int, pad string) *CodedColumn {
	// Old codes are c's, plus padCode for the pad: c's code of an equal
	// value, or the extra code len(c.Dict) when c lacks it. padPos is the
	// pad's position in c's rank order, resolved at the first pad row.
	padCode, padPos := uint32(len(c.Dict)), -1
	remap := make([]uint32, len(c.Dict)+1)
	for i := range remap {
		remap[i] = math.MaxUint32
	}
	var kept []uint32 // old code per new code
	codes := make([]uint32, len(idx))
	for i, r := range idx {
		var oc uint32
		if r >= 0 {
			oc = c.Codes[r]
		} else {
			if padPos < 0 {
				padCode, padPos = c.locate(pad)
			}
			oc = padCode
		}
		if remap[oc] == math.MaxUint32 {
			remap[oc] = uint32(len(kept))
			kept = append(kept, oc)
		}
		codes[i] = remap[oc]
	}
	if remap[len(c.Dict)] != math.MaxUint32 {
		pad = strings.Clone(pad)
	}
	// slot[2*rank+1] holds the new code (plus one) of the kept value with
	// that source rank, and slot[2*padPos] the pad's when c lacks it, so one
	// walk over slot yields the new ranks.
	dict := make([]string, len(kept))
	slot := make([]uint32, 2*len(c.Dict)+1)
	for nc, oc := range kept {
		if oc == uint32(len(c.Dict)) {
			dict[nc] = pad
			slot[2*padPos] = uint32(nc) + 1
		} else {
			dict[nc] = c.Dict[oc]
			slot[2*c.ranks[oc]+1] = uint32(nc) + 1
		}
	}
	out := &CodedColumn{Codes: codes, Dict: dict, ranks: make([]uint32, len(kept))}
	pos := uint32(0)
	for _, s := range slot {
		if s != 0 {
			out.ranks[s-1] = pos
			pos++
		}
	}
	return out
}

// locate returns the code of value v and its position in rank order. When
// no value of c equals v, the code is len(c.Dict) and the position is the
// rank v would take among c's values.
func (c *CodedColumn) locate(v string) (uint32, int) {
	order := c.lexOrder()
	pos, found := c.search(order, v)
	if found {
		return order[pos], pos
	}
	return uint32(len(c.Dict)), pos
}

// search binary-searches order, c's codes in rank order (lexOrder), for
// value v: its position, or where it would be inserted, and whether c
// holds it.
func (c *CodedColumn) search(order []uint32, v string) (int, bool) {
	return slices.BinarySearchFunc(order, v, func(code uint32, v string) int {
		return strings.Compare(c.Dict[code], v)
	})
}
