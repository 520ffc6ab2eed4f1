package dataset

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Attribute{Name: "name", Kind: Identifier, Type: Categorical},
		Attribute{Name: "age", Kind: QuasiIdentifier, Type: Numeric},
		Attribute{Name: "zip", Kind: QuasiIdentifier, Type: Categorical},
		Attribute{Name: "diagnosis", Kind: Sensitive, Type: Categorical},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func testTable(t *testing.T) *Table {
	t.Helper()
	s := testSchema(t)
	rows := []Row{
		{"alice", "30", "30301", "flu"},
		{"bob", "31", "30301", "flu"},
		{"carol", "30", "30301", "cancer"},
		{"dave", "45", "30302", "hiv"},
		{"erin", "47", "30302", "flu"},
	}
	tbl, err := FromRows(s, rows)
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	return tbl
}

func TestKindAndTypeStrings(t *testing.T) {
	cases := []struct {
		k    Kind
		want string
	}{
		{Insensitive, "insensitive"},
		{Identifier, "identifier"},
		{QuasiIdentifier, "quasi-identifier"},
		{Sensitive, "sensitive"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("Kind(%d).String() = %q, want %q", c.k, got, c.want)
		}
	}
	if Categorical.String() != "categorical" || Numeric.String() != "numeric" {
		t.Errorf("unexpected Type strings: %q %q", Categorical, Numeric)
	}
}

func TestNewSchemaErrors(t *testing.T) {
	if _, err := NewSchema(); !errors.Is(err, ErrEmptySchema) {
		t.Errorf("empty schema error = %v, want ErrEmptySchema", err)
	}
	_, err := NewSchema(
		Attribute{Name: "a"}, Attribute{Name: "a"},
	)
	if !errors.Is(err, ErrDuplicateAttribute) {
		t.Errorf("duplicate schema error = %v, want ErrDuplicateAttribute", err)
	}
	if _, err := NewSchema(Attribute{Name: ""}); err == nil {
		t.Error("empty attribute name accepted")
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := testSchema(t)
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if got := s.QuasiIdentifierNames(); !reflect.DeepEqual(got, []string{"age", "zip"}) {
		t.Errorf("QuasiIdentifierNames = %v", got)
	}
	if got := s.SensitiveNames(); !reflect.DeepEqual(got, []string{"diagnosis"}) {
		t.Errorf("SensitiveNames = %v", got)
	}
	if got := s.IdentifierIndices(); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("IdentifierIndices = %v", got)
	}
	if _, err := s.Index("missing"); !errors.Is(err, ErrNoSuchAttribute) {
		t.Errorf("Index(missing) err = %v", err)
	}
	if !s.Has("age") || s.Has("missing") {
		t.Error("Has gave wrong answers")
	}
	a, err := s.ByName("age")
	if err != nil || a.Type != Numeric {
		t.Errorf("ByName(age) = %v, %v", a, err)
	}
	if !s.Equal(s) {
		t.Error("schema not equal to itself")
	}
	p, err := s.Project("zip", "age")
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if !reflect.DeepEqual(p.Names(), []string{"zip", "age"}) {
		t.Errorf("Project names = %v", p.Names())
	}
	if s.Equal(p) {
		t.Error("projected schema equal to original")
	}
}

func TestSchemaWithKinds(t *testing.T) {
	s := testSchema(t)
	s2, err := s.WithKinds(map[string]Kind{"zip": Insensitive})
	if err != nil {
		t.Fatalf("WithKinds: %v", err)
	}
	if got := s2.QuasiIdentifierNames(); !reflect.DeepEqual(got, []string{"age"}) {
		t.Errorf("after WithKinds QI = %v", got)
	}
	// Original unchanged.
	if got := s.QuasiIdentifierNames(); !reflect.DeepEqual(got, []string{"age", "zip"}) {
		t.Errorf("original mutated: %v", got)
	}
	if _, err := s.WithKinds(map[string]Kind{"nope": Sensitive}); err == nil {
		t.Error("WithKinds with unknown attribute succeeded")
	}
}

func TestTableAccess(t *testing.T) {
	tbl := testTable(t)
	if tbl.Len() != 5 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	if _, err := FromRows(tbl.Schema(), []Row{{"short"}}); !errors.Is(err, ErrRowArity) {
		t.Errorf("short row error = %v", err)
	}
	if _, err := tbl.Row(99); !errors.Is(err, ErrRowIndex) {
		t.Errorf("Row(99) error = %v", err)
	}
	v, err := tbl.Value(0, 3)
	if err != nil || v != "flu" {
		t.Errorf("Value(0,3) = %q, %v", v, err)
	}
	if _, err := tbl.Value(0, 9); err == nil {
		t.Error("Value with bad column succeeded")
	}
	ages, err := tbl.CodedColumn(1)
	if st := ages.Stats(); err != nil || !st.Parsed[ages.Codes[3]] || st.Num[ages.Codes[3]] != 45 {
		t.Errorf("column 1 row 3 reads %v, %v", st.Num[ages.Codes[3]], err)
	}
	if diag, _ := tbl.CodedColumn(3); diag.Stats().Parsed[diag.Codes[0]] {
		t.Error("categorical cell parsed as a number")
	}
	if err := tbl.SetValue(0, 3, "hiv"); err != nil {
		t.Fatalf("SetValue: %v", err)
	}
	v, _ = tbl.Value(0, 3)
	if v != "hiv" {
		t.Errorf("after SetValue value = %q", v)
	}
	r, _ := tbl.Row(1)
	r[0] = "mutated"
	if v, _ := tbl.Value(1, 0); v != "bob" {
		t.Error("Row returned aliased storage")
	}
}

func TestTableCloneIsDeep(t *testing.T) {
	tbl := testTable(t)
	c := tbl.Clone()
	if err := c.SetValue(0, 1, "99"); err != nil {
		t.Fatal(err)
	}
	v, _ := tbl.Value(0, 1)
	if v != "30" {
		t.Errorf("clone mutation leaked into original: %q", v)
	}
}

func TestColumnDomainFrequencies(t *testing.T) {
	tbl := testTable(t)
	col, err := tbl.Column("diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	if len(col) != 5 || col[3] != "hiv" {
		t.Errorf("Column = %v", col)
	}
	dom, err := tbl.Domain("diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dom, []string{"cancer", "flu", "hiv"}) {
		t.Errorf("Domain = %v", dom)
	}
	freq, err := tbl.Frequencies("diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	if freq["flu"] != 3 || freq["cancer"] != 1 {
		t.Errorf("Frequencies = %v", freq)
	}
	if _, err := tbl.Column("missing"); err == nil {
		t.Error("Column(missing) succeeded")
	}
}

func TestNumericRange(t *testing.T) {
	tbl := testTable(t)
	min, max, err := tbl.NumericRange("age")
	if err != nil {
		t.Fatal(err)
	}
	if min != 30 || max != 47 {
		t.Errorf("NumericRange = %v..%v", min, max)
	}
	if _, _, err := tbl.NumericRange("diagnosis"); !errors.Is(err, ErrNotNumeric) {
		t.Errorf("NumericRange on categorical = %v", err)
	}
}

func TestProjectAndDropIdentifiers(t *testing.T) {
	tbl := testTable(t)
	p, err := tbl.Project("diagnosis", "age")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := p.Row(0)
	if !reflect.DeepEqual([]string(r), []string{"flu", "30"}) {
		t.Errorf("projected row = %v", r)
	}
	d, err := tbl.DropIdentifiers()
	if err != nil {
		t.Fatal(err)
	}
	if d.Schema().Has("name") {
		t.Error("DropIdentifiers kept identifier column")
	}
	if d.Len() != tbl.Len() {
		t.Errorf("DropIdentifiers changed row count: %d", d.Len())
	}
}

func TestSelectSampleSplit(t *testing.T) {
	tbl := testTable(t)
	sel, err := tbl.Select([]int{4, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Len() != 2 {
		t.Fatalf("Select len = %d", sel.Len())
	}
	r, _ := sel.Row(0)
	if r[0] != "erin" {
		t.Errorf("Select order wrong: %v", r)
	}
	if _, err := tbl.Select([]int{99}); err == nil {
		t.Error("Select with bad index succeeded")
	}

	rng := rand.New(rand.NewSource(1))
	s := tbl.Sample(3, rng)
	if s.Len() != 3 {
		t.Errorf("Sample len = %d", s.Len())
	}
	all := tbl.Sample(100, rng)
	if all.Len() != tbl.Len() {
		t.Errorf("Sample over-size len = %d", all.Len())
	}

	train, test := tbl.Split(0.6, rng)
	if train.Len()+test.Len() != tbl.Len() {
		t.Errorf("Split sizes %d + %d != %d", train.Len(), test.Len(), tbl.Len())
	}
	if train.Len() != 3 {
		t.Errorf("Split train len = %d, want 3", train.Len())
	}
}

func TestWithSchemaAndAppendTable(t *testing.T) {
	tbl := testTable(t)
	s2, err := tbl.Schema().WithKinds(map[string]Kind{"zip": Sensitive})
	if err != nil {
		t.Fatal(err)
	}
	v, err := tbl.WithSchema(s2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.Schema().SensitiveNames(), []string{"zip", "diagnosis"}) {
		t.Errorf("re-typed sensitive names = %v", v.Schema().SensitiveNames())
	}
	short, _ := NewSchema(Attribute{Name: "x"})
	if _, err := tbl.WithSchema(short); err == nil {
		t.Error("WithSchema with wrong arity succeeded")
	}

	other := testTable(t)
	if err := tbl.AppendTable(other); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 10 {
		t.Errorf("AppendTable len = %d", tbl.Len())
	}
}

func TestGroupBy(t *testing.T) {
	tbl := testTable(t)
	classes, err := tbl.GroupBy("age", "zip")
	if err != nil {
		t.Fatal(err)
	}
	// ages 30/30301 x2, 31/30301, 45/30302, 47/30302
	if len(classes) != 4 {
		t.Fatalf("classes = %d, want 4", len(classes))
	}
	sizes := make([]int, len(classes))
	for i, c := range classes {
		sizes[i] = c.Size()
	}
	slices.Sort(sizes)
	if !reflect.DeepEqual(sizes, []int{1, 1, 1, 2}) {
		t.Errorf("class sizes = %v", sizes)
	}
	if MinClassSize(classes) != 1 {
		t.Errorf("MinClassSize = %d", MinClassSize(classes))
	}
	qi, err := tbl.GroupByQuasiIdentifier()
	if err != nil {
		t.Fatal(err)
	}
	if len(qi) != len(classes) {
		t.Errorf("GroupByQuasiIdentifier classes = %d", len(qi))
	}
	if _, err := tbl.GroupBy("missing"); err == nil {
		t.Error("GroupBy(missing) succeeded")
	}
	if MinClassSize(nil) != 0 {
		t.Error("MinClassSize of no classes should be zero")
	}
}

func TestSensitiveDistribution(t *testing.T) {
	tbl := testTable(t)
	classes, err := tbl.GroupBy("zip")
	if err != nil {
		t.Fatal(err)
	}
	var zip1 EquivalenceClass
	for _, c := range classes {
		if c.Values[0] == "30301" {
			zip1 = c
		}
	}
	dist, err := tbl.SensitiveDistribution(zip1, "diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	if dist["flu"] != 2 || dist["cancer"] != 1 {
		t.Errorf("SensitiveDistribution = %v", dist)
	}
	if _, err := tbl.SensitiveDistribution(zip1, "missing"); err == nil {
		t.Error("SensitiveDistribution(missing) succeeded")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := testTable(t)
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(tbl.Schema(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tbl.Len() {
		t.Fatalf("round trip len = %d", back.Len())
	}
	for i := 0; i < tbl.Len(); i++ {
		a, _ := tbl.Row(i)
		b, _ := back.Row(i)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("row %d mismatch: %v vs %v", i, a, b)
		}
	}
}

func TestCSVHeaderValidation(t *testing.T) {
	tbl := testTable(t)
	bad := "wrong,age,zip,diagnosis\nx,1,2,3\n"
	if _, err := ReadCSV(tbl.Schema(), strings.NewReader(bad)); err == nil {
		t.Error("ReadCSV accepted wrong header")
	}
	if _, err := ReadCSV(tbl.Schema(), strings.NewReader("")); err == nil {
		t.Error("ReadCSV accepted empty input")
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	tbl := testTable(t)
	path := t.TempDir() + "/t.csv"
	if err := tbl.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSVFile(tbl.Schema(), path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tbl.Len() {
		t.Errorf("file round trip len = %d", back.Len())
	}
	if _, err := ReadCSVFile(tbl.Schema(), path+"missing"); err == nil {
		t.Error("ReadCSVFile on missing file succeeded")
	}
}

func TestReadCSVInferred(t *testing.T) {
	in := "a,b\n1,x\n2,y\n"
	tbl, err := ReadCSVInferred(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 || tbl.Schema().Len() != 2 {
		t.Fatalf("inferred table %dx%d", tbl.Len(), tbl.Schema().Len())
	}
	if tbl.Schema().Attribute(0).Kind != Insensitive {
		t.Error("inferred kind should be insensitive")
	}
	if _, err := ReadCSVInferred(strings.NewReader("")); err == nil {
		t.Error("ReadCSVInferred accepted empty input")
	}
}

func TestTableString(t *testing.T) {
	tbl := testTable(t)
	s := tbl.String()
	if !strings.Contains(s, "diagnosis") || !strings.Contains(s, "alice") {
		t.Errorf("String output missing content: %q", s)
	}
	// Force the "more rows" suffix.
	for i := 0; i < 2; i++ {
		if err := tbl.AppendTable(testTable(t)); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(tbl.String(), "more rows") {
		t.Error("String should truncate long tables")
	}
}

func TestGroupByDeterministicOrder(t *testing.T) {
	tbl := testTable(t)
	a, err := tbl.GroupBy("zip")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := tbl.GroupBy("zip")
	if !slices.IsSortedFunc(a, func(x, y EquivalenceClass) int { return slices.Compare(x.Values, y.Values) }) {
		t.Error("GroupBy output not sorted")
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("GroupBy not deterministic")
	}
}

func TestRowsCopy(t *testing.T) {
	tbl := testTable(t)
	rows := tbl.Rows()
	rows[0][0] = "mutated"
	v, _ := tbl.Value(0, 0)
	if v != "alice" {
		t.Error("Rows() returned aliased storage")
	}
}
