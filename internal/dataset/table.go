package dataset

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
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

// Table is an ordered collection of rows sharing a schema, stored as one
// immutable dictionary-coded column per attribute (see column.go). The zero
// value is not usable; construct tables with NewTable, FromRows,
// FromColumns, ReadCSV or OpenSnapshot.
type Table struct {
	schema *Schema
	n      int
	cols   []*CodedColumn
	// hash is the row-content fingerprint hasher folded over all n rows (see
	// fingerprint.go), or nil until first needed. Builders store it as they
	// encode; AppendTable extends it over the appended rows only; writers
	// that replace a column reset it. Atomic so concurrent readers of a
	// shared table may fill it in.
	hash atomic.Pointer[contentHasher]
	// scanWorkers bounds the worker pool used by the chunked scan kernels
	// (GroupBy, snapshot encode, metric scans) on this table.
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

// NewTable returns an empty table with the given schema.
func NewTable(schema *Schema) *Table {
	t, _ := FromRows(schema, nil)
	return t
}

// FromRows builds a table from the given rows, validating arity. Every
// column is dictionary-encoded in one pass, folding the row-content
// fingerprint as it goes.
func FromRows(schema *Schema, rows []Row) (*Table, error) {
	k := schema.Len()
	b := newTableBuilder(k, len(rows))
	for i, r := range rows {
		if len(r) != k {
			return nil, fmt.Errorf("row %d: %w: got %d values, want %d", i, ErrRowArity, len(r), k)
		}
		b.addRow(r)
	}
	return b.table(schema), nil
}

// FromColumns builds a table over the given columns, one per schema
// attribute in order. Columns are immutable, so the table shares them with
// every other table holding them; they must all have the same row count.
func FromColumns(schema *Schema, cols []*CodedColumn) (*Table, error) {
	if len(cols) != schema.Len() {
		return nil, fmt.Errorf("%w: got %d columns, want %d", ErrRowArity, len(cols), schema.Len())
	}
	n := 0
	if len(cols) > 0 {
		n = cols[0].Len()
	}
	for j, cc := range cols {
		if cc.Len() != n {
			return nil, fmt.Errorf("dataset: column %q has %d rows, column %q has %d",
				schema.attrs[j].Name, cc.Len(), schema.attrs[0].Name, n)
		}
	}
	return &Table{schema: schema, n: n, cols: slices.Clone(cols)}, nil
}

// tableBuilder encodes rows into columns, folding the row-content hash.
type tableBuilder struct {
	cols   []colBuilder
	hasher contentHasher
	n      int
}

func newTableBuilder(k, rows int) *tableBuilder {
	b := &tableBuilder{cols: make([]colBuilder, k), hasher: newContentHasher()}
	for i := range b.cols {
		b.cols[i].init(rows)
	}
	return b
}

func (b *tableBuilder) addRow(r []string) {
	for i, v := range r {
		b.hasher.fold(b.cols[i].add(v))
	}
	b.hasher.endRow()
	b.n++
}

func (b *tableBuilder) table(schema *Schema) *Table {
	t := &Table{schema: schema, n: b.n, cols: make([]*CodedColumn, len(b.cols))}
	for i := range b.cols {
		t.cols[i] = b.cols[i].column()
	}
	t.hash.Store(&b.hasher)
	return t
}

// derive returns a table over schema and cols with t's row count and scan
// worker bound. The column objects are shared, not copied.
func (t *Table) derive(schema *Schema, cols []*CodedColumn) *Table {
	out := &Table{schema: schema, n: t.n, cols: cols}
	return out.inheritScanWorkers(t)
}

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int { return t.n }

// Row returns a fresh copy of the i-th row.
func (t *Table) Row(i int) (Row, error) {
	if i < 0 || i >= t.n {
		return nil, fmt.Errorf("%w: %d (table has %d rows)", ErrRowIndex, i, t.n)
	}
	out := make(Row, len(t.cols))
	for j, cc := range t.cols {
		out[j] = cc.Dict[cc.Codes[i]]
	}
	return out, nil
}

// Value returns the value of column col in row i.
func (t *Table) Value(i, col int) (string, error) {
	if i < 0 || i >= t.n {
		return "", fmt.Errorf("%w: %d (table has %d rows)", ErrRowIndex, i, t.n)
	}
	cc, err := t.CodedColumn(col)
	if err != nil {
		return "", err
	}
	return cc.Dict[cc.Codes[i]], nil
}

// SetValue overwrites the value of column col in row i. It re-encodes the
// whole column, O(rows): bulk writers use SetCodedColumn instead.
func (t *Table) SetValue(i, col int, v string) error {
	if i < 0 || i >= t.n {
		return fmt.Errorf("%w: %d (table has %d rows)", ErrRowIndex, i, t.n)
	}
	cc, err := t.CodedColumn(col)
	if err != nil {
		return err
	}
	var b colBuilder
	b.init(t.n)
	for r, code := range cc.Codes {
		if r == i {
			b.add(v)
		} else {
			b.add(cc.Dict[code])
		}
	}
	t.cols[col] = b.column()
	t.hash.Store(nil)
	return nil
}

// Clone returns an independent copy of the table. Columns are immutable, so
// the copy shares the source's column objects and fingerprint state; a later
// write on either table replaces that table's own columns only.
func (t *Table) Clone() *Table {
	out := t.derive(t.schema, slices.Clone(t.cols))
	out.hash.Store(t.hash.Load())
	return out
}

// Column returns a copy of all values of the named column.
func (t *Table) Column(name string) ([]string, error) {
	cc, err := t.CodedColumnByName(name)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(cc.Codes))
	for i, code := range cc.Codes {
		out[i] = cc.Dict[code]
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
// parse-once FloatColumn.
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
// The projection shares the source's column objects.
func (t *Table) Project(names ...string) (*Table, error) {
	schema, err := t.schema.Project(names...)
	if err != nil {
		return nil, err
	}
	cols := make([]*CodedColumn, len(names))
	for i, n := range names {
		cols[i] = t.cols[t.schema.MustIndex(n)]
	}
	return t.derive(schema, cols), nil
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
// given order). Indices may repeat. Each column is re-coded into
// first-appearance order over the selected rows.
func (t *Table) Select(indices []int) (*Table, error) {
	return t.SelectPad(indices, nil)
}

// SelectPad is Select where an index of -1 yields the row pad, which must
// hold one value per column (a nil pad allows no -1). Cells are shared as
// codes, never copied as strings, yet every column is encoded exactly as
// FromRows over the same cells would encode it: codes in first-appearance
// order, a pad value that occurs in the column sharing its code, and equal
// ranks.
func (t *Table) SelectPad(indices []int, pad Row) (*Table, error) {
	lo := 0
	if pad != nil {
		if len(pad) != len(t.cols) {
			return nil, fmt.Errorf("%w: pad has %d values, want %d", ErrRowArity, len(pad), len(t.cols))
		}
		lo = -1
	}
	for _, i := range indices {
		if i < lo || i >= t.n {
			return nil, fmt.Errorf("%w: %d (table has %d rows)", ErrRowIndex, i, t.n)
		}
	}
	cols := make([]*CodedColumn, len(t.cols))
	for j, cc := range t.cols {
		var v string
		if pad != nil {
			v = pad[j]
		}
		cols[j] = cc.selectRows(indices, v)
	}
	out := t.derive(t.schema, cols)
	out.n = len(indices)
	return out, nil
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

// WithSchema returns a re-typed copy of the table under a different schema
// with the same arity. It is used when attribute kinds are reconfigured (for
// example changing which columns are quasi-identifiers). The copy shares the
// source's column objects; writes to either table do not affect the other.
func (t *Table) WithSchema(s *Schema) (*Table, error) {
	if s.Len() != t.schema.Len() {
		return nil, fmt.Errorf("dataset: schema arity %d does not match table arity %d", s.Len(), t.schema.Len())
	}
	out := t.derive(s, slices.Clone(t.cols))
	out.hash.Store(t.hash.Load())
	return out, nil
}

// AppendTable appends all rows of other to the table. The schemas must be
// fully equal — same attribute names, kinds and types in the same order — not
// merely the same arity; appending rows under a re-typed or renamed schema
// would silently change their meaning. Callers that intend such a re-typing
// must make it explicit with WithSchema first.
//
// Existing cells are copied as codes, never re-read as strings: each column
// interns only other's values, and the fingerprint state is extended over
// the appended rows only.
func (t *Table) AppendTable(other *Table) error {
	if !t.schema.Equal(other.schema) {
		return fmt.Errorf("%w: cannot append table with schema %v to table with schema %v",
			ErrSchemaMismatch, other.schema.Names(), t.schema.Names())
	}
	h := t.rowsHash()
	foldRows(&h, other.n, other.cols)
	for j, cc := range t.cols {
		t.cols[j] = cc.appendColumn(other.cols[j])
	}
	t.n += other.n
	t.hash.Store(&h)
	return nil
}

// Rows returns a copy of all rows. It is intended for tests and small tables;
// algorithm code should read columns instead.
func (t *Table) Rows() []Row {
	out := make([]Row, t.n)
	for i := range out {
		out[i], _ = t.Row(i)
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
	limit := min(t.n, 10)
	for i := 0; i < limit; i++ {
		r, _ := t.Row(i)
		b.WriteString(strings.Join(r, " | "))
		b.WriteString("\n")
	}
	if t.n > limit {
		fmt.Fprintf(&b, "... (%d more rows)\n", t.n-limit)
	}
	return b.String()
}
