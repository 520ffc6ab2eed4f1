package dataset

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// numericMismatch checks column col's per-code numeric reading (Stats:
// Num, Parsed, AnyParsed, Min, Max), NumericRange and Stats().Numeric
// against a naive reference that parses the column's cells row by row, and
// describes the first difference. It returns "" when they agree.
func numericMismatch(tbl *Table, col int) string {
	cc, err := tbl.CodedColumn(col)
	if err != nil {
		return err.Error()
	}
	st := cc.Stats()
	anyParsed, allParsed := false, true
	lo, hi := math.Inf(1), math.Inf(-1)
	num := map[string]float64{}
	for r := 0; r < tbl.Len(); r++ {
		v, _ := tbl.Value(r, col)
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		code := cc.Codes[r]
		if st.Parsed[code] != (err == nil) || (err == nil && math.Float64bits(st.Num[code]) != math.Float64bits(f)) {
			return fmt.Sprintf("column %d row %d %q: reads %v (parsed %v), the cell parses to %v (error %v)",
				col, r, v, st.Num[code], st.Parsed[code], f, err)
		}
		if err != nil {
			allParsed = false
			continue
		}
		anyParsed = true
		num[v] = f
		if !math.IsNaN(f) {
			lo, hi = min(lo, f), max(hi, f)
		}
	}
	if st.AnyParsed != anyParsed || st.Min != lo || st.Max != hi {
		return fmt.Sprintf("column %d: any %v, range %v..%v; the cells give any %v, range %v..%v",
			col, st.AnyParsed, st.Min, st.Max, anyParsed, lo, hi)
	}
	name := tbl.Schema().Attribute(col).Name
	gotLo, gotHi, err := tbl.NumericRange(name)
	if !anyParsed && !errors.Is(err, ErrNotNumeric) {
		return fmt.Sprintf("column %d: NumericRange error %v, want ErrNotNumeric", col, err)
	}
	if anyParsed && (err != nil || gotLo != lo || gotHi != hi) {
		return fmt.Sprintf("column %d: NumericRange %v..%v (%v), want %v..%v", col, gotLo, gotHi, err, lo, hi)
	}
	// Numeric lists every distinct value, by number and then by bytes, when
	// all of them parse; it is nil otherwise.
	if !allParsed {
		if st.Numeric != nil {
			return fmt.Sprintf("column %d: Numeric %q over a column with unparsed cells", col, lexValues(cc, st.Numeric))
		}
		return ""
	}
	want := make([]string, 0, len(num))
	for v := range num {
		want = append(want, v)
	}
	slices.SortFunc(want, func(a, b string) int { return cmp.Or(cmp.Compare(num[a], num[b]), strings.Compare(a, b)) })
	if got := lexValues(cc, st.Numeric); !slices.Equal(got, want) {
		return fmt.Sprintf("column %d: Numeric %q, want %q", col, got, want)
	}
	return ""
}

// numericFixture holds numeric columns whose cells are padded spellings,
// NaN, infinities, suppressed and interval cells, beside a column where
// every value parses and one where none does.
func numericFixture(t *testing.T, n int, seed int64) *Table {
	t.Helper()
	schema := MustSchema(
		Attribute{Name: "mixed", Kind: QuasiIdentifier, Type: Numeric},
		Attribute{Name: "clean", Kind: QuasiIdentifier, Type: Numeric},
		Attribute{Name: "nan", Kind: QuasiIdentifier, Type: Numeric},
		Attribute{Name: "text", Kind: Sensitive, Type: Categorical},
	)
	mixed := []string{"30", " 30", "30.0", "41", "NaN", "+Inf", "-Inf", "*", "[20-30)", "55 ", "1e1", "-0", "0", "0x1p4", "inf "}
	clean := []string{" 5", "5", "5.0", "-2.5", "1e3", "+Inf", "-Inf", "NaN", "7\t", "-1e308"}
	nan := []string{"NaN", "*", "nan"}
	text := []string{"flu", "*", "[20-30)", "abc", "", "1,5"}
	rng := rand.New(rand.NewSource(seed))
	pick := func(vs []string) string { return vs[rng.Intn(len(vs))] }
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{pick(mixed), pick(clean), pick(nan), pick(text)}
	}
	tbl, err := FromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestNumericReadingMatchesCells checks every column's numeric reading
// against a row-by-row parse of its cells on heap, appended, selected and
// snapshot-loaded columns.
func TestNumericReadingMatchesCells(t *testing.T) {
	heap := numericFixture(t, 80, 1)
	mt, err := OpenSnapshot(writeSnapshotFile(t, heap))
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()

	extra, err := FromRows(heap.Schema(), []Row{
		{"99", "-7", "NaN", "x"},
		{"-1e9", " 5", "*", "flu"},
		{"", "5", "nan", "abc"},
	})
	if err != nil {
		t.Fatal(err)
	}
	appended := heap.Clone()
	if err := appended.AppendTable(extra); err != nil {
		t.Fatal(err)
	}
	snapAppended := mt.Table().Clone()
	if err := snapAppended.AppendTable(extra); err != nil {
		t.Fatal(err)
	}
	var idx []int
	for r := heap.Len() - 1; r >= 0; r -= 3 {
		idx = append(idx, r)
	}
	selected, err := heap.Select(idx)
	if err != nil {
		t.Fatal(err)
	}
	// A selection of rows whose mixed cell does not parse leaves that
	// column without a number.
	var unparsed []int
	for r := 0; r < heap.Len(); r++ {
		if v, _ := heap.Value(r, 0); v == "*" || v == "[20-30)" {
			unparsed = append(unparsed, r)
		}
	}
	none, err := heap.Select(unparsed)
	if err != nil {
		t.Fatal(err)
	}

	for name, tbl := range map[string]*Table{
		"heap": heap, "snapshot": mt.Table(), "appended": appended,
		"snapshot appended": snapAppended, "selected": selected, "unparsed selection": none,
	} {
		for col := 0; col < tbl.Schema().Len(); col++ {
			if msg := numericMismatch(tbl, col); msg != "" {
				t.Errorf("%s: %s", name, msg)
			}
		}
	}
	if _, _, err := none.NumericRange("mixed"); !errors.Is(err, ErrNotNumeric) {
		t.Errorf("NumericRange over unparsed cells = %v, want ErrNotNumeric", err)
	}
	// A column of NaN (and unparsed) cells has a number but no range.
	if lo, hi, err := heap.NumericRange("nan"); err != nil || !math.IsInf(lo, 1) || !math.IsInf(hi, -1) {
		t.Errorf("NumericRange(nan) = %v, %v, %v; want +Inf, -Inf, nil", lo, hi, err)
	}
}
