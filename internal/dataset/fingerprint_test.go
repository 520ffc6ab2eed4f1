package dataset

import (
	"strings"
	"testing"
)

func fpSchema() *Schema {
	return MustSchema(
		Attribute{Name: "age", Kind: QuasiIdentifier, Type: Numeric},
		Attribute{Name: "zip", Kind: QuasiIdentifier, Type: Categorical},
		Attribute{Name: "diagnosis", Kind: Sensitive, Type: Categorical},
	)
}

// referenceRowsHash is the row-content hash computed the plain way: every
// cell hashed from its bytes, in row order.
func referenceRowsHash[R ~[]string](rows []R) string {
	ch := newContentHasher()
	for _, r := range rows {
		for _, v := range r {
			ch.cell(v)
		}
		ch.endRow()
	}
	return ch.sum()
}

func fpRows() []Row {
	return []Row{
		{"34", "130", "flu"},
		{"41", "131", "cancer"},
		{"34", "130", "flu"},
	}
}

func TestFingerprintStableAndContentKeyed(t *testing.T) {
	a, err := FromRows(fpSchema(), fpRows())
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromRows(fpSchema(), fpRows())
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == "" {
		t.Fatal("empty fingerprint")
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Error("fingerprint not stable across calls")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical content produced different fingerprints")
	}
}

func TestFingerprintSeesMutations(t *testing.T) {
	tbl, err := FromRows(fpSchema(), fpRows())
	if err != nil {
		t.Fatal(err)
	}
	orig := tbl.Fingerprint()
	if err := tbl.SetValue(0, 0, "35"); err != nil {
		t.Fatal(err)
	}
	mutated := tbl.Fingerprint()
	if mutated == orig {
		t.Error("SetValue did not change the fingerprint")
	}
	extra, err := FromRows(fpSchema(), []Row{{"52", "132", "flu"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendTable(extra); err != nil {
		t.Fatal(err)
	}
	if tbl.Fingerprint() == mutated {
		t.Error("AppendTable did not change the fingerprint")
	}
}

func TestFingerprintCoversSchema(t *testing.T) {
	tbl, err := FromRows(fpSchema(), fpRows())
	if err != nil {
		t.Fatal(err)
	}
	// Same rows under a different schema (diagnosis demoted to insensitive)
	// must fingerprint differently: the released bytes depend on attribute
	// kinds, and WithSchema copies share the columns and row-content hash.
	alt := MustSchema(
		Attribute{Name: "age", Kind: QuasiIdentifier, Type: Numeric},
		Attribute{Name: "zip", Kind: QuasiIdentifier, Type: Categorical},
		Attribute{Name: "diagnosis", Kind: Insensitive, Type: Categorical},
	)
	view, err := tbl.WithSchema(alt)
	if err != nil {
		t.Fatal(err)
	}
	if view.Fingerprint() == tbl.Fingerprint() {
		t.Error("schema change did not change the fingerprint")
	}
}

func TestFingerprintMatchesCSVIngest(t *testing.T) {
	// The streaming CSV reader computes the row hash during ingest; it must
	// agree with the lazy computation over FromRows-built tables.
	built, err := FromRows(fpSchema(), fpRows())
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	if err := built.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	read, err := ReadCSV(fpSchema(), strings.NewReader(csv.String()))
	if err != nil {
		t.Fatal(err)
	}
	if read.Fingerprint() != built.Fingerprint() {
		t.Errorf("CSV-ingested fingerprint %s != built %s", read.Fingerprint(), built.Fingerprint())
	}
}

func TestFingerprintSeparatorsUnambiguous(t *testing.T) {
	// Adjacent-cell content must not collide with shifted boundaries.
	s := MustSchema(
		Attribute{Name: "a", Kind: Insensitive, Type: Categorical},
		Attribute{Name: "b", Kind: Insensitive, Type: Categorical},
	)
	x, err := FromRows(s, []Row{{"ab", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	y, err := FromRows(s, []Row{{"a", "bc"}})
	if err != nil {
		t.Fatal(err)
	}
	if x.Fingerprint() == y.Fingerprint() {
		t.Error("cell-boundary shift collided")
	}
}
