package dataset

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Common table errors.
var (
	// ErrRowArity is returned when a row does not have one value per schema
	// attribute.
	ErrRowArity = errors.New("dataset: row arity does not match schema")
	// ErrRowIndex is returned when a row index is out of range.
	ErrRowIndex = errors.New("dataset: row index out of range")
	// ErrNotNumeric is returned when numeric parsing is requested for a
	// value that is not a number (for example a generalized interval).
	ErrNotNumeric = errors.New("dataset: value is not numeric")
	// ErrEmptyTable is returned by operations that require at least one row.
	ErrEmptyTable = errors.New("dataset: table has no rows")
	// ErrSchemaMismatch is returned when two tables that must share an equal
	// schema (same names, kinds and types, in order) do not.
	ErrSchemaMismatch = errors.New("dataset: schemas are not equal")
)

// SuppressedValue is the conventional marker used for fully suppressed cells.
const SuppressedValue = "*"

// Row is a single record: one string value per schema attribute, in schema
// order.
type Row []string

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Table is an ordered collection of rows sharing a schema. The zero value is
// not usable; construct tables with NewTable or FromRows.
type Table struct {
	schema *Schema
	rows   []Row
	// src, when non-nil, defers row materialization for snapshot-backed
	// tables (see snapshot.go): the typed column views are served straight
	// from the mapping, and string row storage is only built if a caller
	// actually asks for rows. rowsOnce guards the one-time materialization.
	src      *rowSource
	rowsOnce sync.Once
	// cache holds the lazily-built columnar views (see column.go). Tables
	// that share row storage (WithSchema views) share the cache. All
	// constructors set it; cacheOnce guards the fallback initialization for
	// tables built by in-package struct literals so that concurrent column
	// accessors never race on the pointer.
	cache     *colCache
	cacheOnce sync.Once
	// scanWorkers bounds the worker pool used by the chunked scan kernels
	// (GroupBy, Fingerprint, snapshot encode, metric scans) on this table.
	// Zero — the default — keeps every scan sequential, so library callers
	// that never opt in observe the historical single-threaded behavior;
	// core and server resolve their configured Workers (0 → GOMAXPROCS) and
	// set it explicitly. Atomic because handles are read by concurrent
	// requests while the server may still be wiring tables up.
	scanWorkers atomic.Int32
}

// SetScanWorkers bounds the worker pool the chunked scan kernels may use on
// this table. n > 1 enables parallel scans with at most n workers; n <= 1
// (and the default zero) keeps scans sequential. Every scan kernel is
// byte-identical for all worker counts, so this is purely a performance
// knob. Derived tables (Clone, Project, Select, WithSchema) inherit the
// setting.
func (t *Table) SetScanWorkers(n int) {
	if n < 0 {
		n = 0
	}
	if n > 1<<20 {
		n = 1 << 20
	}
	t.scanWorkers.Store(int32(n))
}

// ScanWorkers reports the scan-kernel worker bound set with SetScanWorkers.
func (t *Table) ScanWorkers() int { return int(t.scanWorkers.Load()) }

// scanParallelism resolves the effective scan worker count: at least 1.
func (t *Table) scanParallelism() int {
	if w := int(t.scanWorkers.Load()); w > 1 {
		return w
	}
	return 1
}

// inheritScanWorkers copies the scan-worker bound from src onto t; used by
// every derived-table constructor so the knob follows the data.
func (t *Table) inheritScanWorkers(src *Table) *Table {
	t.scanWorkers.Store(src.scanWorkers.Load())
	return t
}

// data returns the table's row storage, materializing it on first access for
// snapshot-backed tables. Every reader of t.rows outside this method must go
// through it.
func (t *Table) data() []Row {
	if t.src != nil {
		t.rowsOnce.Do(func() { t.rows = t.src.materialize() })
	}
	return t.rows
}

// promote detaches a snapshot-backed table from its column source before a
// mutation: rows are materialized (copy-on-write — written cells become heap
// strings, untouched cells keep aliasing the mapped dictionary) and the
// source is dropped so the mutated rows are the single source of truth.
func (t *Table) promote() {
	if t.src == nil {
		return
	}
	t.data()
	t.src = nil
}

// NewTable returns an empty table with the given schema.
func NewTable(schema *Schema) *Table {
	return &Table{schema: schema, cache: newColCache()}
}

// FromRows builds a table from the given rows, validating arity. Rows are
// copied into one shared backing arena (a single allocation instead of one
// per row, as in Clone).
func FromRows(schema *Schema, rows []Row) (*Table, error) {
	t := NewTable(schema)
	k := schema.Len()
	t.rows = make([]Row, len(rows))
	arena := make([]string, len(rows)*k)
	for i, r := range rows {
		if len(r) != k {
			return nil, fmt.Errorf("row %d: %w: got %d values, want %d", i, ErrRowArity, len(r), k)
		}
		nr := arena[i*k : (i+1)*k : (i+1)*k]
		copy(nr, r)
		t.rows[i] = nr
	}
	return t, nil
}

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// Len returns the number of rows. Snapshot-backed tables answer from the
// column source without materializing row storage.
func (t *Table) Len() int {
	if s := t.src; s != nil {
		return s.n
	}
	return len(t.rows)
}

// Append adds a row to the table. The row is copied.
func (t *Table) Append(r Row) error {
	if len(r) != t.schema.Len() {
		return fmt.Errorf("%w: got %d values, want %d", ErrRowArity, len(r), t.schema.Len())
	}
	t.promote()
	t.rows = append(t.rows, r.Clone())
	t.cache.invalidateAll()
	return nil
}

// Row returns the i-th row. The returned slice is the table's backing storage
// and must not be modified by callers; use SetValue to mutate.
func (t *Table) Row(i int) (Row, error) {
	rows := t.data()
	if i < 0 || i >= len(rows) {
		return nil, fmt.Errorf("%w: %d (table has %d rows)", ErrRowIndex, i, len(rows))
	}
	return rows[i], nil
}

// Value returns the value of column col in row i.
func (t *Table) Value(i, col int) (string, error) {
	r, err := t.Row(i)
	if err != nil {
		return "", err
	}
	if col < 0 || col >= len(r) {
		return "", fmt.Errorf("dataset: column index %d out of range", col)
	}
	return r[col], nil
}

// SetValue overwrites the value of column col in row i.
func (t *Table) SetValue(i, col int, v string) error {
	t.promote()
	r, err := t.Row(i)
	if err != nil {
		return err
	}
	if col < 0 || col >= len(r) {
		return fmt.Errorf("dataset: column index %d out of range", col)
	}
	r[col] = v
	t.cache.invalidateCol(col)
	return nil
}

// Float returns the value of column col in row i parsed as a float64.
func (t *Table) Float(i, col int) (float64, error) {
	v, err := t.Value(i, col)
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %q", ErrNotNumeric, v)
	}
	return f, nil
}

// Clone returns a deep copy of the table (same schema pointer, copied rows).
// All cloned rows share one backing arena, which makes cloning a single
// allocation per table instead of one per row; rows remain independent
// fixed-capacity subslices. The copy starts with the source's columnar views
// and fingerprint (see colCache.derive), so it never rebuilds what the source
// had already built.
func (t *Table) Clone() *Table {
	rows := t.data()
	k := t.schema.Len()
	cols := make([]int, k)
	for i := range cols {
		cols[i] = i
	}
	out := &Table{schema: t.schema, rows: make([]Row, len(rows)), cache: t.colcache().derive(cols, true)}
	arena := make([]string, len(rows)*k)
	for i, r := range rows {
		nr := arena[i*k : (i+1)*k : (i+1)*k]
		copy(nr, r)
		out.rows[i] = nr
	}
	return out.inheritScanWorkers(t)
}

// Column returns a copy of all values of the named column.
func (t *Table) Column(name string) ([]string, error) {
	col, err := t.schema.Index(name)
	if err != nil {
		return nil, err
	}
	rows := t.data()
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r[col]
	}
	return out, nil
}

// Domain returns the distinct values of the named column in sorted order.
// It is served from the coded column's cached distribution.
func (t *Table) Domain(name string) ([]string, error) {
	cc, err := t.CodedColumnByName(name)
	if err != nil {
		return nil, err
	}
	lex := cc.Stats().Lex
	out := make([]string, len(lex))
	for i, code := range lex {
		out[i] = cc.Dict[code]
	}
	return out, nil
}

// Frequencies returns the absolute value counts of the named column. It is
// served from the coded column's cached distribution.
func (t *Table) Frequencies(name string) (map[string]int, error) {
	cc, err := t.CodedColumnByName(name)
	if err != nil {
		return nil, err
	}
	st := cc.Stats()
	out := make(map[string]int, len(st.Lex))
	for _, code := range st.Lex {
		out[cc.Dict[code]] = st.Counts[code]
	}
	return out, nil
}

// NumericRange returns the minimum and maximum of a numeric column. Values
// that do not parse as numbers (for example suppressed cells) are skipped; if
// no value parses, ErrNotNumeric is returned. The scan is served from the
// parse-once FloatColumn cache.
func (t *Table) NumericRange(name string) (min, max float64, err error) {
	fc, err := t.FloatColumnByName(name)
	if err != nil {
		return 0, 0, err
	}
	if fc.ValidCount == 0 {
		return 0, 0, fmt.Errorf("%w: column %q has no numeric values", ErrNotNumeric, name)
	}
	return fc.Min, fc.Max, nil
}

// Project returns a new table containing only the named columns, in order.
// The projection starts with the source's columnar views of the kept
// columns (see colCache.derive).
func (t *Table) Project(names ...string) (*Table, error) {
	schema, err := t.schema.Project(names...)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(names))
	for i, n := range names {
		idx[i] = t.schema.MustIndex(n)
	}
	rows := t.data()
	out := &Table{schema: schema, rows: make([]Row, len(rows)), cache: t.colcache().derive(idx, false)}
	for i, r := range rows {
		nr := make(Row, len(idx))
		for j, c := range idx {
			nr[j] = r[c]
		}
		out.rows[i] = nr
	}
	return out.inheritScanWorkers(t), nil
}

// DropIdentifiers returns a copy of the table with all direct-identifier
// columns removed. This is always the first step of a release pipeline.
func (t *Table) DropIdentifiers() (*Table, error) {
	var keep []string
	for _, a := range t.schema.Attributes() {
		if a.Kind != Identifier {
			keep = append(keep, a.Name)
		}
	}
	if len(keep) == 0 {
		return nil, ErrEmptySchema
	}
	return t.Project(keep...)
}

// Select returns a new table containing the rows at the given indices (in the
// given order). Indices may repeat.
func (t *Table) Select(indices []int) (*Table, error) {
	out := NewTable(t.schema)
	out.rows = make([]Row, 0, len(indices))
	for _, i := range indices {
		r, err := t.Row(i)
		if err != nil {
			return nil, err
		}
		out.rows = append(out.rows, r.Clone())
	}
	return out.inheritScanWorkers(t), nil
}

// Filter returns the indices of all rows for which keep returns true.
func (t *Table) Filter(keep func(Row) bool) []int {
	var out []int
	for i, r := range t.data() {
		if keep(r) {
			out = append(out, i)
		}
	}
	return out
}

// Sample returns a new table with n rows drawn without replacement using rng.
// If n >= Len() a clone of the whole table is returned.
func (t *Table) Sample(n int, rng *rand.Rand) *Table {
	if n >= t.Len() {
		return t.Clone()
	}
	perm := rng.Perm(t.Len())[:n]
	sort.Ints(perm)
	out, _ := t.Select(perm)
	return out
}

// Split partitions the table's rows into two tables: the first containing a
// fraction frac of rows (rounded down), the second the remainder. The split
// is randomized with rng; it is used for train/test evaluation of
// classification utility.
func (t *Table) Split(frac float64, rng *rand.Rand) (*Table, *Table) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(float64(t.Len()) * frac)
	perm := rng.Perm(t.Len())
	first, _ := t.Select(perm[:n])
	second, _ := t.Select(perm[n:])
	return first, second
}

// WithSchema returns a shallow re-typed view of the table under a different
// schema with the same arity. It is used when attribute kinds are
// reconfigured (for example changing which columns are quasi-identifiers).
func (t *Table) WithSchema(s *Schema) (*Table, error) {
	if s.Len() != t.schema.Len() {
		return nil, fmt.Errorf("dataset: schema arity %d does not match table arity %d", s.Len(), t.schema.Len())
	}
	// The view shares row storage, so it also shares the columnar cache:
	// a mutation through either table invalidates both. Snapshot-backed
	// tables materialize first so both views mutate the same rows.
	out := &Table{schema: s, rows: t.data(), cache: t.colcache()}
	return out.inheritScanWorkers(t), nil
}

// AppendTable appends all rows of other to the table. The schemas must be
// fully equal — same attribute names, kinds and types in the same order — not
// merely the same arity; appending rows under a re-typed or renamed schema
// would silently change their meaning. Callers that intend such a re-typing
// must make it explicit with WithSchema first.
func (t *Table) AppendTable(other *Table) error {
	if !t.schema.Equal(other.schema) {
		return fmt.Errorf("%w: cannot append table with schema %v to table with schema %v",
			ErrSchemaMismatch, other.schema.Names(), t.schema.Names())
	}
	t.promote()
	for _, r := range other.data() {
		t.rows = append(t.rows, r.Clone())
	}
	t.cache.invalidateAll()
	return nil
}

// Rows returns a copy of all rows. It is intended for tests and small tables;
// algorithm code should iterate with Row to avoid the copy.
func (t *Table) Rows() []Row {
	rows := t.data()
	out := make([]Row, len(rows))
	for i, r := range rows {
		out[i] = r.Clone()
	}
	return out
}

// String renders a compact, human-readable preview of the table (header plus
// up to 10 rows). It is meant for debugging and example output, not for
// serialization; use WriteCSV for that.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.schema.Names(), " | "))
	b.WriteString("\n")
	rows := t.data()
	limit := len(rows)
	if limit > 10 {
		limit = 10
	}
	for i := 0; i < limit; i++ {
		b.WriteString(strings.Join(rows[i], " | "))
		b.WriteString("\n")
	}
	if len(rows) > limit {
		fmt.Fprintf(&b, "... (%d more rows)\n", len(rows)-limit)
	}
	return b.String()
}
