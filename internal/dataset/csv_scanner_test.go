package dataset

import (
	"encoding/csv"
	"errors"
	"strings"
	"testing"
)

func cellAt(t *testing.T, tbl *Table, i, j int) string {
	t.Helper()
	v, err := tbl.Value(i, j)
	if err != nil {
		t.Fatalf("Value(%d,%d): %v", i, j, err)
	}
	return v
}

func scannerSchema() *Schema {
	return MustSchema(
		Attribute{Name: "a", Kind: QuasiIdentifier, Type: Categorical},
		Attribute{Name: "b", Kind: QuasiIdentifier, Type: Categorical},
		Attribute{Name: "c", Kind: Sensitive, Type: Categorical},
	)
}

// TestReadCSVQuotedFallback exercises the encoding/csv fallback: quoted
// fields with embedded separators, escaped quotes and embedded newlines must
// parse with full RFC 4180 semantics even though earlier records took the
// quote-free fast path.
func TestReadCSVQuotedFallback(t *testing.T) {
	in := "a,b,c\n" +
		"plain,row,first\n" + // fast path
		"\"with,comma\",\"esc\"\"quote\",\"multi\nline\"\n" + // fallback from here
		"after,fallback,row\n"
	tbl, err := ReadCSV(scannerSchema(), strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Row{
		{"plain", "row", "first"},
		{"with,comma", `esc"quote`, "multi\nline"},
		{"after", "fallback", "row"},
	}
	if tbl.Len() != len(want) {
		t.Fatalf("rows = %d, want %d", tbl.Len(), len(want))
	}
	for i, w := range want {
		for j, cell := range w {
			if got := cellAt(t, tbl, i, j); got != cell {
				t.Errorf("cell (%d,%d) = %q, want %q", i, j, got, cell)
			}
		}
	}
	// The fingerprint must agree with the same logical content built
	// directly, regardless of which parsing path produced the cells.
	built, err := FromRows(scannerSchema(), want)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Fingerprint() != built.Fingerprint() {
		t.Error("quoted-fallback fingerprint differs from built table")
	}
}

// TestReadCSVLineEndings covers CRLF terminators, blank-line skipping and a
// final record without a trailing newline.
func TestReadCSVLineEndings(t *testing.T) {
	in := "a,b,c\r\n" +
		"x,y,z\r\n" +
		"\r\n" + // blank line: skipped, like encoding/csv
		"\n" +
		"p,q,r" // no trailing newline
	tbl, err := ReadCSV(scannerSchema(), strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Fatalf("rows = %d, want 2", tbl.Len())
	}
	if got := cellAt(t, tbl, 1, 2); got != "r" {
		t.Errorf("last cell = %q, want %q", got, "r")
	}
}

// TestReadCSVFieldCountError checks that both scanner paths reject records
// with the wrong number of fields, reporting encoding/csv's sentinel.
func TestReadCSVFieldCountError(t *testing.T) {
	cases := map[string]string{
		"fast":     "a,b,c\nx,y\n",
		"fallback": "a,b,c\n\"x\",y\n",
	}
	for name, in := range cases {
		_, err := ReadCSV(scannerSchema(), strings.NewReader(in))
		if err == nil {
			t.Errorf("%s: short record accepted", name)
			continue
		}
		if !errors.Is(err, csv.ErrFieldCount) {
			t.Errorf("%s: error = %v, want csv.ErrFieldCount", name, err)
		}
	}
}

// TestReadCSVLongLine pushes a record past the scanner's buffer size so the
// scratch accumulation path runs.
func TestReadCSVLongLine(t *testing.T) {
	long := strings.Repeat("v", 100<<10)
	in := "a,b,c\nshort,cells,here\n" + long + ",y,z\n"
	tbl, err := ReadCSV(scannerSchema(), strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Fatalf("rows = %d, want 2", tbl.Len())
	}
	if got := cellAt(t, tbl, 1, 0); got != long {
		t.Errorf("long cell length = %d, want %d", len(got), len(long))
	}
}

// TestReadCSVHighCardinalityColumn checks that a near-unique column
// round-trips and is coded at ingest like every other column.
func TestReadCSVHighCardinalityColumn(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("a,b,c\n")
	rows := make([]Row, 0, 512)
	for i := 0; i < 512; i++ {
		id := "id" + strings.Repeat("x", i%7) + "-" + string(rune('a'+i%26)) + "-" + itoa(i)
		r := Row{id, "grp" + string(rune('a'+i%3)), "s"}
		rows = append(rows, r)
		sb.WriteString(r[0] + "," + r[1] + "," + r[2] + "\n")
	}
	tbl, err := ReadCSV(scannerSchema(), strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range rows {
		if got := cellAt(t, tbl, i, 0); got != w[0] {
			t.Fatalf("row %d id = %q, want %q", i, got, w[0])
		}
	}
	cc, err := tbl.CodedColumn(0)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Cardinality() != 512 {
		t.Errorf("coded cardinality = %d, want %d", cc.Cardinality(), 512)
	}
	built, err := FromRows(scannerSchema(), rows)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Fingerprint() != built.Fingerprint() {
		t.Error("high-cardinality ingest fingerprint differs from built table")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
