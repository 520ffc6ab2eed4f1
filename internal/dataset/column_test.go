package dataset

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func TestNumericReadingParsesOnceAndCaches(t *testing.T) {
	tbl := testTable(t)
	cc, err := tbl.CodedColumnByName("age")
	if err != nil {
		t.Fatal(err)
	}
	st := cc.Stats()
	if len(st.Num) != cc.Cardinality() || len(st.Parsed) != cc.Cardinality() || !st.AnyParsed {
		t.Fatalf("reading covers %d/%d codes (any %v), want %d", len(st.Num), len(st.Parsed), st.AnyParsed, cc.Cardinality())
	}
	if st.Min != 30 || st.Max != 47 {
		t.Errorf("Min/Max = %v/%v, want 30/47", st.Min, st.Max)
	}
	if code := cc.Codes[3]; st.Num[code] != 45 || !st.Parsed[code] {
		t.Errorf("row 3 reads %v (parsed %v), want 45", st.Num[code], st.Parsed[code])
	}
	if cc.Stats() != st {
		t.Error("second Stats call did not return the cached reading")
	}
	// Non-numeric cells are flagged, not fatal.
	diag, err := tbl.CodedColumnByName("diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	if diag.Stats().AnyParsed || slices.Contains(diag.Stats().Parsed, true) {
		t.Error("diagnosis values parsed as numbers")
	}
	if _, _, err := tbl.NumericRange("diagnosis"); !errors.Is(err, ErrNotNumeric) {
		t.Errorf("NumericRange(diagnosis) = %v, want ErrNotNumeric", err)
	}
	if _, _, err := tbl.NumericRange("missing"); err == nil {
		t.Error("NumericRange(missing) succeeded")
	}
}

func TestCodedColumnDeterminismAndLookup(t *testing.T) {
	tbl := testTable(t)
	cc, err := tbl.CodedColumnByName("diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	// Codes are assigned in first-appearance order: flu, cancer, hiv.
	if !reflect.DeepEqual(cc.Dict, []string{"flu", "cancer", "hiv"}) {
		t.Errorf("Dict = %v", cc.Dict)
	}
	if !reflect.DeepEqual(cc.Codes, []uint32{0, 0, 1, 2, 0}) {
		t.Errorf("Codes = %v", cc.Codes)
	}
	if cc.Cardinality() != 3 || cc.Value(2) != "hiv" {
		t.Errorf("Cardinality/Value wrong: %d %q", cc.Cardinality(), cc.Value(2))
	}
	code, ok := cc.Code("cancer")
	if !ok || code != 1 {
		t.Errorf("Code(cancer) = %d, %v", code, ok)
	}
	if _, ok := cc.Code("absent"); ok {
		t.Error("Code(absent) reported present")
	}
	// An identical table encodes identically.
	other := testTable(t)
	oc, err := other.CodedColumnByName("diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(oc.Codes, cc.Codes) || !reflect.DeepEqual(oc.Dict, cc.Dict) {
		t.Error("identical tables produced different encodings")
	}
	if _, err := tbl.CodedColumn(-1); err == nil {
		t.Error("CodedColumn out of range succeeded")
	}
}

// TestColumnStatsMatchRows checks the cached distribution, and the Domain
// and Frequencies it serves, against the row cells on heap and snapshot
// tables, including a numeric column whose numeric and lexicographic orders
// differ and a SetValue that changes the column.
func TestColumnStatsMatchRows(t *testing.T) {
	schema := MustSchema(
		Attribute{Name: "v", Kind: Sensitive, Type: Categorical},
		Attribute{Name: "n", Kind: Sensitive, Type: Numeric},
	)
	heap, err := FromRows(schema, []Row{
		{"b", "10"}, {"a", " 2"}, {"c", "10"}, {"a", "-1.5"}, {"b", "100"},
	})
	if err != nil {
		t.Fatal(err)
	}
	mt, err := OpenSnapshot(writeSnapshotFile(t, heap))
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	for name, tbl := range map[string]*Table{"heap": heap, "snapshot": mt.Table()} {
		v, _ := tbl.CodedColumnByName("v")
		if st := v.Stats(); st.Numeric != nil || !reflect.DeepEqual(lexValues(v, st.Lex), []string{"a", "b", "c"}) {
			t.Errorf("%s: v stats = %+v", name, st)
		}
		n, _ := tbl.CodedColumnByName("n")
		if got := lexValues(n, n.Stats().Numeric); !reflect.DeepEqual(got, []string{"-1.5", " 2", "10", "100"}) {
			t.Errorf("%s: numeric order = %q", name, got)
		}
		dom, err := tbl.Domain("n")
		if err != nil || !reflect.DeepEqual(dom, []string{" 2", "-1.5", "10", "100"}) {
			t.Errorf("%s: Domain = %q, %v", name, dom, err)
		}
		freq, err := tbl.Frequencies("v")
		if err != nil || !reflect.DeepEqual(freq, map[string]int{"a": 2, "b": 2, "c": 1}) {
			t.Errorf("%s: Frequencies = %v, %v", name, freq, err)
		}
	}
	if err := heap.SetValue(2, 0, "a"); err != nil {
		t.Fatal(err)
	}
	if dom, _ := heap.Domain("v"); !reflect.DeepEqual(dom, []string{"a", "b"}) {
		t.Errorf("Domain after SetValue = %q", dom)
	}
}

func lexValues(cc *CodedColumn, codes []uint32) []string {
	out := make([]string, len(codes))
	for i, c := range codes {
		out[i] = cc.Value(c)
	}
	return out
}

func TestSetValueInstallsNewColumn(t *testing.T) {
	tbl := testTable(t)
	age := tbl.Schema().MustIndex("age")
	before, err := tbl.CodedColumn(age)
	if err != nil {
		t.Fatal(err)
	}
	beforeSt := before.Stats()
	if err := tbl.SetValue(0, age, "99"); err != nil {
		t.Fatal(err)
	}
	after, err := tbl.CodedColumn(age)
	if err != nil {
		t.Fatal(err)
	}
	if after == before || after.Stats() == beforeSt {
		t.Fatal("SetValue kept the old column")
	}
	if st := after.Stats(); st.Num[after.Codes[0]] != 99 || st.Max != 99 {
		t.Errorf("new column row 0 = %v, Max = %v, want 99", st.Num[after.Codes[0]], st.Max)
	}
	// The old column is immutable.
	if got := before.Stats().Num[before.Codes[0]]; got != 30 || before.Stats() != beforeSt {
		t.Errorf("old column mutated: %v", got)
	}
	// Writing one column leaves the others in place.
	diagBefore, _ := tbl.CodedColumnByName("diagnosis")
	if err := tbl.SetValue(0, age, "100"); err != nil {
		t.Fatal(err)
	}
	diagAfter, _ := tbl.CodedColumnByName("diagnosis")
	if diagBefore != diagAfter {
		t.Error("writing age replaced the diagnosis column")
	}
}

func TestAppendTableInstallsNewColumns(t *testing.T) {
	tbl := testTable(t)
	age := tbl.Schema().MustIndex("age")
	before, err := tbl.CodedColumn(age)
	if err != nil {
		t.Fatal(err)
	}
	zipBefore, _ := tbl.CodedColumnByName("zip")
	extra, err := FromRows(tbl.Schema(), []Row{{"zed", "70", "30309", "flu"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendTable(extra); err != nil {
		t.Fatal(err)
	}
	after, err := tbl.CodedColumn(age)
	if err != nil {
		t.Fatal(err)
	}
	if after == before || after.Len() != 6 || after.Stats().Max != 70 {
		t.Errorf("AppendTable did not install a new column: len=%d max=%v", after.Len(), after.Stats().Max)
	}
	if before.Len() != 5 {
		t.Errorf("old column grew to %d rows", before.Len())
	}
	zipAfter, _ := tbl.CodedColumnByName("zip")
	if zipAfter == zipBefore || zipAfter.Len() != tbl.Len() || zipBefore.Len() != 5 {
		t.Error("AppendTable did not replace the coded column")
	}
}

func TestWithSchemaCopySharesColumns(t *testing.T) {
	tbl := testTable(t)
	s2, err := tbl.Schema().WithKinds(map[string]Kind{"zip": Sensitive})
	if err != nil {
		t.Fatal(err)
	}
	view, err := tbl.WithSchema(s2)
	if err != nil {
		t.Fatal(err)
	}
	age := tbl.Schema().MustIndex("age")
	before, _ := tbl.CodedColumn(age)
	if got, _ := view.CodedColumn(age); got != before {
		t.Fatal("WithSchema copy does not share the source's columns")
	}
	// A write through the copy replaces only the copy's column.
	if err := view.SetValue(0, age, "80"); err != nil {
		t.Fatal(err)
	}
	if after, _ := tbl.CodedColumn(age); after != before {
		t.Fatal("write through the WithSchema copy replaced the source's column")
	}
	if v, _ := view.Value(0, age); v != "80" {
		t.Errorf("copy value = %q, want 80", v)
	}
	if v, _ := tbl.Value(0, age); v != "30" {
		t.Errorf("source value = %q, want 30", v)
	}
}

// TestFromColumns: a table built over another table's columns shares them,
// reads and fingerprints exactly like FromRows over the same cells, and a
// write to it replaces only its own column.
func TestFromColumns(t *testing.T) {
	src := testTable(t)
	proj, err := src.Project("zip", "age")
	if err != nil {
		t.Fatal(err)
	}
	cols := []*CodedColumn{}
	for j := 0; j < proj.Schema().Len(); j++ {
		cc, _ := proj.CodedColumn(j)
		cols = append(cols, cc)
	}
	tbl, err := FromColumns(proj.Schema(), cols)
	if err != nil {
		t.Fatal(err)
	}
	for j, cc := range cols {
		if got, _ := tbl.CodedColumn(j); got != cc {
			t.Fatalf("column %d is not shared", j)
		}
	}
	viaRows, err := FromRows(proj.Schema(), proj.Rows())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != viaRows.Len() || !reflect.DeepEqual(tbl.Rows(), viaRows.Rows()) {
		t.Fatalf("rows %v, FromRows %v", tbl.Rows(), viaRows.Rows())
	}
	if tbl.Fingerprint() != viaRows.Fingerprint() {
		t.Errorf("fingerprint %s, FromRows %s", tbl.Fingerprint(), viaRows.Fingerprint())
	}
	if err := tbl.SetValue(0, 0, "99999"); err != nil {
		t.Fatal(err)
	}
	if v, _ := proj.Value(0, 0); v != "30301" {
		t.Errorf("write through FromColumns table reached the source: %q", v)
	}

	if _, err := FromColumns(proj.Schema(), cols[:1]); !errors.Is(err, ErrRowArity) {
		t.Errorf("one column for a two-attribute schema: err = %v, want ErrRowArity", err)
	}
	short, _ := NewCodedColumn([]string{"1"}, []uint32{0})
	if _, err := FromColumns(proj.Schema(), []*CodedColumn{cols[0], short}); err == nil {
		t.Error("columns of unequal length accepted")
	}
}

func TestAppendTableRejectsMismatchedSchemas(t *testing.T) {
	tbl := testTable(t)

	// Same arity, different attribute name.
	renamed := MustSchema(
		Attribute{Name: "name", Kind: Identifier, Type: Categorical},
		Attribute{Name: "years", Kind: QuasiIdentifier, Type: Numeric},
		Attribute{Name: "zip", Kind: QuasiIdentifier, Type: Categorical},
		Attribute{Name: "diagnosis", Kind: Sensitive, Type: Categorical},
	)
	other, err := FromRows(renamed, []Row{{"x", "1", "2", "flu"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendTable(other); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("renamed schema append error = %v, want ErrSchemaMismatch", err)
	}

	// Same names and types, different kind.
	retyped, err := tbl.Schema().WithKinds(map[string]Kind{"zip": Sensitive})
	if err != nil {
		t.Fatal(err)
	}
	reviewed, err := testTable(t).WithSchema(retyped)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendTable(reviewed); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("re-kinded schema append error = %v, want ErrSchemaMismatch", err)
	}

	// Equal schemas still append, and row count grows.
	n := tbl.Len()
	if err := tbl.AppendTable(testTable(t)); err != nil {
		t.Fatalf("equal-schema append failed: %v", err)
	}
	if tbl.Len() != n+5 {
		t.Errorf("append len = %d, want %d", tbl.Len(), n+5)
	}
}

// groupOracle is the naive grouping reference, sharing no code with
// GroupBy: rows are read as strings, collected in a map keyed by the
// quoted value tuple, and the classes sorted with slices.Compare over their
// values.
func groupOracle(t *testing.T, tbl *Table, columns ...string) []EquivalenceClass {
	t.Helper()
	idx := make([]int, len(columns))
	for i, c := range columns {
		idx[i] = tbl.Schema().MustIndex(c)
	}
	byTuple := make(map[string]*EquivalenceClass)
	for r, row := range tbl.Rows() {
		values := make([]string, len(idx))
		for i, c := range idx {
			values[i] = row[c]
		}
		key := fmt.Sprintf("%q", values)
		c, ok := byTuple[key]
		if !ok {
			c = &EquivalenceClass{Values: values}
			byTuple[key] = c
		}
		c.Rows = append(c.Rows, r)
	}
	out := make([]EquivalenceClass, 0, len(byTuple))
	for _, c := range byTuple {
		out = append(out, *c)
	}
	slices.SortFunc(out, func(a, b EquivalenceClass) int { return slices.Compare(a.Values, b.Values) })
	return out
}

// TestGroupByMatchesOracle: for random tables, GroupBy must return exactly
// the oracle's classes (values, member rows, order). The value pool holds
// the 0x1f signature separator and other control bytes, so tuples that
// join to one signature must still form separate classes.
func TestGroupByMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	categorical := []string{"a", "b", "ab", "A", "", "z*z", "über", "flu", "[20-30)", "*",
		"a\x1fb", "\x01", "a\x01", "b\x1fc"}
	for trial := 0; trial < 200; trial++ {
		ncols := 1 + rng.Intn(4)
		attrs := make([]Attribute, ncols)
		for i := range attrs {
			typ := Categorical
			if rng.Intn(2) == 0 {
				typ = Numeric
			}
			attrs[i] = Attribute{Name: fmt.Sprintf("c%d", i), Kind: QuasiIdentifier, Type: typ}
		}
		rows := make([]Row, rng.Intn(60))
		for r := range rows {
			row := make(Row, ncols)
			for i := range row {
				if attrs[i].Type == Numeric {
					row[i] = fmt.Sprintf("%d", rng.Intn(8))
				} else {
					row[i] = categorical[rng.Intn(len(categorical))]
				}
			}
			rows[r] = row
		}
		tbl, err := FromRows(MustSchema(attrs...), rows)
		if err != nil {
			t.Fatal(err)
		}
		names := tbl.Schema().Names()
		got, err := tbl.GroupBy(names...)
		if err != nil {
			t.Fatal(err)
		}
		if want := groupOracle(t, tbl, names...); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: GroupBy diverged from the oracle:\ngot:  %+v\nwant: %+v", trial, got, want)
		}
	}
}

// TestGroupByControlBytes groups values holding bytes below 0x20, where
// tuple order differs from the byte order of joined signatures and two
// tuples can join to one signature.
func TestGroupByControlBytes(t *testing.T) {
	s := MustSchema(
		Attribute{Name: "x", Kind: QuasiIdentifier, Type: Categorical},
		Attribute{Name: "y", Kind: QuasiIdentifier, Type: Categorical},
	)
	tbl, err := FromRows(s, []Row{
		{"a", "b"}, {"a\x01c", "b"}, {"a", "\x02"}, {"a\x01c", "b"}, {"q", "r"},
		{"a\x1fb", "c"}, {"a", "b\x1fc"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tbl.GroupBy("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if want := groupOracle(t, tbl, "x", "y"); !reflect.DeepEqual(got, want) {
		t.Fatalf("control-byte grouping diverged:\ngot:  %+v\nwant: %+v", got, want)
	}
	want := []EquivalenceClass{
		{Values: []string{"a", "\x02"}, Rows: []int{2}},
		{Values: []string{"a", "b"}, Rows: []int{0}},
		{Values: []string{"a", "b\x1fc"}, Rows: []int{6}},
		{Values: []string{"a\x01c", "b"}, Rows: []int{1, 3}},
		{Values: []string{"a\x1fb", "c"}, Rows: []int{5}},
		{Values: []string{"q", "r"}, Rows: []int{4}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("GroupBy = %q, want %q", got, want)
	}
}

// TestGroupByRadixOverflow forces the cardinality product past 128 bits, so
// GroupBy chains at least three runs of columns. Rows are mutations of a few
// prototypes, so classes share long prefixes and recur across rows, and
// every run's class numbering decides the final order.
func TestGroupByRadixOverflow(t *testing.T) {
	forceSmallChunks(t)
	const ncols = 30
	attrs := make([]Attribute, ncols)
	names := make([]string, ncols)
	for i := range attrs {
		names[i] = fmt.Sprintf("w%d", i)
		attrs[i] = Attribute{Name: names[i], Kind: QuasiIdentifier, Type: Categorical}
	}
	rng := rand.New(rand.NewSource(3))
	value := func() string {
		return []string{"v", "v\x1f", "\x01v"}[rng.Intn(3)] + fmt.Sprintf("%02d", rng.Intn(50))
	}
	protos := make([]Row, 6)
	for p := range protos {
		protos[p] = make(Row, ncols)
		for i := range protos[p] {
			protos[p][i] = value()
		}
	}
	rows := make([]Row, 2000)
	for r := range rows {
		rows[r] = slices.Clone(protos[rng.Intn(len(protos))])
		if rng.Intn(2) == 0 {
			rows[r][rng.Intn(ncols)] = value()
		}
	}
	tbl, err := FromRows(MustSchema(attrs...), rows)
	if err != nil {
		t.Fatal(err)
	}
	prod := 1.0
	for i := range attrs {
		cc, _ := tbl.CodedColumn(i)
		prod *= float64(cc.Cardinality())
	}
	if prod < math.Pow(2, 128) {
		t.Fatalf("cardinality product %g does not need three runs", prod)
	}
	want := groupOracle(t, tbl, names...)
	if len(want) == len(rows) {
		t.Fatal("fixture has no repeated tuples")
	}
	for _, workers := range []int{1, 4} {
		tbl.SetScanWorkers(workers)
		got, err := tbl.GroupBy(names...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: GroupBy over overflowing columns diverged from the oracle", workers)
		}
	}
}
