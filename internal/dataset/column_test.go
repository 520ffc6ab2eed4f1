package dataset

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func TestFloatColumnParsesOnceAndCaches(t *testing.T) {
	tbl := testTable(t)
	age := tbl.Schema().MustIndex("age")
	fc, err := tbl.FloatColumn(age)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Len() != tbl.Len() || fc.ValidCount != tbl.Len() {
		t.Fatalf("FloatColumn len=%d valid=%d, want %d", fc.Len(), fc.ValidCount, tbl.Len())
	}
	if fc.Min != 30 || fc.Max != 47 {
		t.Errorf("Min/Max = %v/%v, want 30/47", fc.Min, fc.Max)
	}
	if fc.Values[3] != 45 || !fc.Valid[3] {
		t.Errorf("Values[3] = %v (valid %v), want 45", fc.Values[3], fc.Valid[3])
	}
	again, err := tbl.FloatColumn(age)
	if err != nil {
		t.Fatal(err)
	}
	if again != fc {
		t.Error("second FloatColumn call did not return the cached snapshot")
	}
	// Non-numeric cells are flagged, not fatal.
	diag, err := tbl.FloatColumnByName("diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	if diag.ValidCount != 0 {
		t.Errorf("diagnosis ValidCount = %d, want 0", diag.ValidCount)
	}
	if _, err := tbl.FloatColumn(99); err == nil {
		t.Error("FloatColumn out of range succeeded")
	}
	if _, err := tbl.FloatColumnByName("missing"); err == nil {
		t.Error("FloatColumnByName(missing) succeeded")
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
	before, err := tbl.FloatColumn(age)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetValue(0, age, "99"); err != nil {
		t.Fatal(err)
	}
	after, err := tbl.FloatColumn(age)
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatal("SetValue kept the old float view")
	}
	if after.Values[0] != 99 || after.Max != 99 {
		t.Errorf("new column Values[0]=%v Max=%v, want 99", after.Values[0], after.Max)
	}
	// The old column is immutable.
	if before.Values[0] != 30 {
		t.Errorf("old column mutated: %v", before.Values[0])
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
	before, err := tbl.FloatColumn(age)
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
	after, err := tbl.FloatColumn(age)
	if err != nil {
		t.Fatal(err)
	}
	if after == before || after.Len() != 6 || after.Max != 70 {
		t.Errorf("AppendTable did not install a new column: len=%d max=%v", after.Len(), after.Max)
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
	before, _ := tbl.FloatColumn(age)
	if got, _ := view.FloatColumn(age); got != before {
		t.Fatal("WithSchema copy does not share the source's columns")
	}
	// A write through the copy replaces only the copy's column.
	if err := view.SetValue(0, age, "80"); err != nil {
		t.Fatal(err)
	}
	if after, _ := tbl.FloatColumn(age); after != before {
		t.Fatal("write through the WithSchema copy replaced the source's column")
	}
	if v, _ := view.Value(0, age); v != "80" {
		t.Errorf("copy value = %q, want 80", v)
	}
	if v, _ := tbl.Value(0, age); v != "30" {
		t.Errorf("source value = %q, want 30", v)
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

// TestGroupByCodedMatchesSignaturePath is the property test required by the
// columnar refactor: for random tables, coded grouping must return classes
// byte-identical (signatures, values, member rows, order) to the historical
// string-signature implementation.
func TestGroupByCodedMatchesSignaturePath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	categorical := []string{"a", "b", "ab", "A", "", "z*z", "über", "flu", "[20-30)", "*"}
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
		coded, err := tbl.GroupBy(names...)
		if err != nil {
			t.Fatal(err)
		}
		cols := make([]int, len(names))
		for i, n := range names {
			cols[i] = tbl.Schema().MustIndex(n)
		}
		ref, err := tbl.groupBySignature(cols)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(coded, ref) {
			t.Fatalf("trial %d: coded GroupBy diverged from string-signature path:\ncoded: %+v\nref:   %+v",
				trial, coded, ref)
		}
	}
}

// TestGroupByControlByteFallback exercises the string-sort fallback taken
// when values contain bytes below 0x20 (rank order can then differ from
// joined-signature byte order).
func TestGroupByControlByteFallback(t *testing.T) {
	s := MustSchema(
		Attribute{Name: "x", Kind: QuasiIdentifier, Type: Categorical},
		Attribute{Name: "y", Kind: QuasiIdentifier, Type: Categorical},
	)
	tbl, err := FromRows(s, []Row{
		{"a", "b"}, {"a\x01c", "b"}, {"a", "\x02"}, {"a\x01c", "b"}, {"q", "r"},
	})
	if err != nil {
		t.Fatal(err)
	}
	coded, err := tbl.GroupBy("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := tbl.groupBySignature([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coded, ref) {
		t.Fatalf("control-byte grouping diverged:\ncoded: %+v\nref:   %+v", coded, ref)
	}
}

// TestGroupByRadixOverflowFallback forces the cardinality product past
// uint64 so GroupBy takes the string-signature path.
func TestGroupByRadixOverflowFallback(t *testing.T) {
	ncols := 10
	attrs := make([]Attribute, ncols)
	for i := range attrs {
		attrs[i] = Attribute{Name: fmt.Sprintf("w%d", i), Kind: QuasiIdentifier, Type: Categorical}
	}
	rng := rand.New(rand.NewSource(3))
	rows := make([]Row, 300)
	for r := range rows {
		row := make(Row, ncols)
		for i := range row {
			// ~150 distinct values per column: 150^10 overflows uint64.
			row[i] = fmt.Sprintf("v%03d", rng.Intn(150))
		}
		rows[r] = row
	}
	tbl, err := FromRows(MustSchema(attrs...), rows)
	if err != nil {
		t.Fatal(err)
	}
	classes, err := tbl.GroupBy(tbl.Schema().Names()...)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, c := range classes {
		total += c.Size()
		if i > 0 && classes[i-1].Signature >= c.Signature {
			t.Fatal("fallback classes not sorted by signature")
		}
	}
	if total != tbl.Len() {
		t.Fatalf("fallback classes cover %d rows, want %d", total, tbl.Len())
	}
}
