package dataset

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file implements the lazily-built columnar view of a Table. Tables stay
// row-oriented strings at the storage layer (so generalized values like
// "[20-30)" remain first-class), but hot paths — equivalence-class grouping,
// Mondrian partitioning, query evaluation, information-loss metrics — operate
// on cached typed columns:
//
//   - FloatColumn parses every cell of a column exactly once and records which
//     cells are numeric, so algorithms never re-run strconv.ParseFloat on the
//     same cell at every recursion level.
//   - CodedColumn interns every distinct value of a column as a dense uint32
//     code, so grouping and equality predicates compare integers instead of
//     building per-row strings.
//
// Caches are invalidated on mutation (SetValue invalidates only the touched
// column; Append and AppendTable invalidate everything) and rebuilt on the
// next access. Returned columns are immutable snapshots: a mutation never
// changes a column a caller already holds, it only causes the next accessor
// call to rebuild. Tables sharing row storage through WithSchema also share
// the cache, so mutations through one view invalidate the other.
//
// Views survive derivation: a Clone or Project starts with the source's
// views of the columns it keeps (colCache.derive), since views are immutable
// and the copied cells are identical. SetCodedColumn is the bulk writer
// that recodes a whole column and installs its coded view directly.

// FloatColumn is a parse-once numeric view of one column. Values[i] holds the
// parsed number of row i and is meaningful only where Valid[i] is true (cells
// that are suppressed or generalized to intervals do not parse).
type FloatColumn struct {
	// Values holds one parsed value per row; entries where Valid is false
	// are zero and must be ignored.
	Values []float64
	// Valid reports, per row, whether the cell parsed as a number.
	Valid []bool
	// ValidCount is the number of rows whose cell parsed.
	ValidCount int
	// Min and Max are the extrema over valid cells; when ValidCount is zero
	// Min is +Inf and Max is -Inf.
	Min, Max float64
}

// Len returns the number of rows in the column.
func (c *FloatColumn) Len() int { return len(c.Values) }

// CodedColumn is a dictionary-encoded view of one column: every distinct
// string value is interned as a dense uint32 code in first-appearance (row)
// order, which makes the encoding deterministic for a given table content.
type CodedColumn struct {
	// Codes holds one dictionary code per row.
	Codes []uint32
	// Dict maps codes back to values; Dict[Codes[i]] is the cell of row i.
	Dict []string
	// index maps values back to codes. Row-scanning builders fill it as a
	// side effect of interning; snapshot-loaded columns leave it nil and
	// Code() builds it on first use (indexOnce), so opening a snapshot never
	// pays O(dict) map construction for columns nobody reverse-looks-up.
	index     map[string]uint32
	indexOnce sync.Once
	// ranks[code] is the position of Dict[code] in byte-lexicographic order
	// of the dictionary; grouping uses it to order classes without comparing
	// strings.
	ranks []uint32
	// clean reports that no dictionary value contains a byte below 0x20.
	// Only then is per-value rank order guaranteed to match the byte order
	// of joined signatures (the separator is 0x1f).
	clean bool
	// stats is the column's value distribution, built on first use
	// (statsOnce): the column is immutable, so one O(rows) scan serves every
	// later frequency, domain and privacy-criterion query.
	stats     *ColumnStats
	statsOnce sync.Once
}

// ColumnStats is the value distribution of a CodedColumn. Lex and Numeric
// list only codes that occur in the column (nonzero count), so dictionary
// entries no row holds never appear in a domain.
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
}

// Stats returns the column's value distribution, computing it once. The
// result is shared and must not be modified.
func (c *CodedColumn) Stats() *ColumnStats {
	c.statsOnce.Do(c.buildStats)
	return c.stats
}

func (c *CodedColumn) buildStats() {
	st := &ColumnStats{Counts: make([]int, len(c.Dict))}
	for _, code := range c.Codes {
		st.Counts[code]++
	}
	for code, n := range st.Counts {
		if n > 0 {
			st.Lex = append(st.Lex, uint32(code))
		}
	}
	// Sorting by rank never indexes with a rank, so a snapshot carrying
	// inconsistent ranks yields a wrong order rather than a panic.
	slices.SortFunc(st.Lex, func(a, b uint32) int { return cmp.Compare(c.ranks[a], c.ranks[b]) })
	parsed := make([]float64, len(c.Dict))
	for _, code := range st.Lex {
		f, err := strconv.ParseFloat(strings.TrimSpace(c.Dict[code]), 64)
		if err != nil {
			c.stats = st
			return
		}
		parsed[code] = f
	}
	st.Numeric = slices.Clone(st.Lex)
	slices.SortStableFunc(st.Numeric, func(a, b uint32) int { return cmp.Compare(parsed[a], parsed[b]) })
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

// ensureIndex builds the value→code map for columns loaded without one.
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

// colCache holds the per-table columnar caches. It is shared between tables
// that share row storage (WithSchema views) and guarded by a mutex so that
// concurrent readers — for example parallel Mondrian workers — can build and
// reuse columns safely.
type colCache struct {
	mu     sync.Mutex
	floats map[int]*FloatColumn
	codes  map[int]*CodedColumn
	// fp is the cached row-content fingerprint (see fingerprint.go); empty
	// means "not computed". It shares the columnar caches' invalidation: any
	// mutation that could change cell bytes clears it.
	fp string
}

func newColCache() *colCache { return &colCache{} }

// derive returns the cache of a table derived from this cache's table:
// column j of the derived table holds the cells of column cols[j], so it
// starts with the views cached for column cols[j] here. Views built later on
// either table are not shared. A Clone (cols is the identity) also keeps the
// row-content fingerprint.
func (c *colCache) derive(cols []int, clone bool) *colCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := &colCache{}
	for j, src := range cols {
		if fc, ok := c.floats[src]; ok {
			if out.floats == nil {
				out.floats = make(map[int]*FloatColumn)
			}
			out.floats[j] = fc
		}
		if cc, ok := c.codes[src]; ok {
			if out.codes == nil {
				out.codes = make(map[int]*CodedColumn)
			}
			out.codes[j] = cc
		}
	}
	if clone {
		out.fp = c.fp
	}
	return out
}

// invalidateAll drops every cached column (row set changed).
func (c *colCache) invalidateAll() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.floats = nil
	c.codes = nil
	c.fp = ""
	c.mu.Unlock()
}

// invalidateCol drops the cached views of a single column (cell mutated).
func (c *colCache) invalidateCol(col int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	delete(c.floats, col)
	delete(c.codes, col)
	c.fp = ""
	c.mu.Unlock()
}

// colcache returns the table's cache, allocating it race-free for tables
// constructed without a constructor (for example by struct literals inside
// the package).
func (t *Table) colcache() *colCache {
	t.cacheOnce.Do(func() {
		if t.cache == nil {
			t.cache = newColCache()
		}
	})
	return t.cache
}

// FloatColumn returns the parse-once numeric view of column col, building and
// caching it on first access. The returned column is a read-only snapshot;
// callers must not modify it.
func (t *Table) FloatColumn(col int) (*FloatColumn, error) {
	if col < 0 || col >= t.schema.Len() {
		return nil, fmt.Errorf("dataset: column index %d out of range", col)
	}
	c := t.colcache()
	c.mu.Lock()
	defer c.mu.Unlock()
	if fc, ok := c.floats[col]; ok {
		return fc, nil
	}
	var fc *FloatColumn
	if cc, ok := c.codes[col]; ok {
		// A coded view already exists (for example built during CSV ingest):
		// parse each distinct dictionary value once and fan the results out
		// over the code sequence instead of re-parsing every cell.
		fc = floatColumnFromCodes(cc)
	} else {
		rows := t.data()
		fc = &FloatColumn{
			Values: make([]float64, len(rows)),
			Valid:  make([]bool, len(rows)),
			Min:    math.Inf(1),
			Max:    math.Inf(-1),
		}
		for i, r := range rows {
			f, err := strconv.ParseFloat(strings.TrimSpace(r[col]), 64)
			if err != nil {
				continue
			}
			fc.Values[i] = f
			fc.Valid[i] = true
			fc.ValidCount++
			if f < fc.Min {
				fc.Min = f
			}
			if f > fc.Max {
				fc.Max = f
			}
		}
	}
	if c.floats == nil {
		c.floats = make(map[int]*FloatColumn)
	}
	c.floats[col] = fc
	return fc, nil
}

// FloatColumnByName is FloatColumn keyed by attribute name.
func (t *Table) FloatColumnByName(name string) (*FloatColumn, error) {
	col, err := t.schema.Index(name)
	if err != nil {
		return nil, err
	}
	return t.FloatColumn(col)
}

// CodedColumn returns the dictionary-encoded view of column col, building and
// caching it on first access. Codes are assigned in first-appearance order,
// so the encoding is deterministic for a given table content. The returned
// column is a read-only snapshot; callers must not modify it.
func (t *Table) CodedColumn(col int) (*CodedColumn, error) {
	if col < 0 || col >= t.schema.Len() {
		return nil, fmt.Errorf("dataset: column index %d out of range", col)
	}
	c := t.colcache()
	c.mu.Lock()
	defer c.mu.Unlock()
	if cc, ok := c.codes[col]; ok {
		return cc, nil
	}
	rows := t.data()
	cc := &CodedColumn{
		Codes: make([]uint32, len(rows)),
		index: make(map[string]uint32),
	}
	for i, r := range rows {
		v := r[col]
		code, ok := cc.index[v]
		if !ok {
			code = uint32(len(cc.Dict))
			cc.Dict = append(cc.Dict, v)
			cc.index[v] = code
		}
		cc.Codes[i] = code
	}
	cc.buildRanks()
	if c.codes == nil {
		c.codes = make(map[int]*CodedColumn)
	}
	c.codes[col] = cc
	return cc, nil
}

// SetCodedColumn overwrites column col with dict[codes[i]] in every row i
// and installs (dict, codes) as the column's coded view: a caller that
// recodes a whole column pays one bulk write instead of one SetValue per
// cell, and the next CodedColumn call returns the installed view. dict must
// list distinct values in first-appearance order of codes, each used by at
// least one row — exactly what the lazy builder produces — otherwise an
// error is returned and the table is unchanged. The table takes ownership
// of both slices; callers must not modify them afterwards.
func (t *Table) SetCodedColumn(col int, dict []string, codes []uint32) error {
	if col < 0 || col >= t.schema.Len() {
		return fmt.Errorf("dataset: column index %d out of range", col)
	}
	if len(codes) != t.Len() {
		return fmt.Errorf("dataset: coded column has %d rows, table has %d", len(codes), t.Len())
	}
	next := uint32(0)
	for i, code := range codes {
		if code == next {
			next++
		} else if code > next {
			return fmt.Errorf("dataset: code %d of row %d is not in first-appearance order", code, i)
		}
	}
	if int(next) != len(dict) {
		return fmt.Errorf("dataset: dictionary has %d values, codes use %d", len(dict), next)
	}
	index := make(map[string]uint32, len(dict))
	for code, v := range dict {
		if _, dup := index[v]; dup {
			return fmt.Errorf("dataset: dictionary repeats value %q", v)
		}
		index[v] = uint32(code)
	}
	t.promote()
	for i, r := range t.rows {
		r[col] = dict[codes[i]]
	}
	cc := &CodedColumn{Codes: codes, Dict: dict, index: index}
	cc.buildRanks()
	c := t.colcache()
	c.invalidateCol(col)
	c.mu.Lock()
	if c.codes == nil {
		c.codes = make(map[int]*CodedColumn)
	}
	c.codes[col] = cc
	c.mu.Unlock()
	return nil
}

// buildRanks computes the byte-lexicographic rank of every code and whether
// the dictionary is free of control bytes (see the field docs).
func (c *CodedColumn) buildRanks() {
	order := make([]uint32, len(c.Dict))
	for i := range order {
		order[i] = uint32(i)
	}
	sort.Slice(order, func(i, j int) bool { return c.Dict[order[i]] < c.Dict[order[j]] })
	c.ranks = make([]uint32, len(c.Dict))
	for pos, code := range order {
		c.ranks[code] = uint32(pos)
	}
	c.clean = true
	for _, v := range c.Dict {
		for i := 0; i < len(v); i++ {
			if v[i] < 0x20 {
				c.clean = false
				return
			}
		}
	}
}

// floatColumnFromCodes builds the parse-once numeric view of a column from
// its dictionary encoding: each distinct value is parsed once and the result
// fanned out over the code sequence, matching exactly what the row-scanning
// builder would produce.
func floatColumnFromCodes(cc *CodedColumn) *FloatColumn {
	parsed := make([]float64, len(cc.Dict))
	valid := make([]bool, len(cc.Dict))
	for code, v := range cc.Dict {
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			continue
		}
		parsed[code] = f
		valid[code] = true
	}
	fc := &FloatColumn{
		Values: make([]float64, len(cc.Codes)),
		Valid:  make([]bool, len(cc.Codes)),
		Min:    math.Inf(1),
		Max:    math.Inf(-1),
	}
	for i, code := range cc.Codes {
		if !valid[code] {
			continue
		}
		f := parsed[code]
		fc.Values[i] = f
		fc.Valid[i] = true
		fc.ValidCount++
		if f < fc.Min {
			fc.Min = f
		}
		if f > fc.Max {
			fc.Max = f
		}
	}
	return fc
}

// CodedColumnByName is CodedColumn keyed by attribute name.
func (t *Table) CodedColumnByName(name string) (*CodedColumn, error) {
	col, err := t.schema.Index(name)
	if err != nil {
		return nil, err
	}
	return t.CodedColumn(col)
}
