package generalize

import (
	"reflect"
	"strings"
	"testing"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/lattice"
	"github.com/ppdp/ppdp/internal/synth"
)

// writeCells is the per-cell reference for the column writers: it rewrites
// the cells of a row copy and encodes the result from scratch.
func writeCells(t *testing.T, tbl *dataset.Table, cell func(r, c int, v string) string) *dataset.Table {
	t.Helper()
	rows := tbl.Rows()
	for r, row := range rows {
		for c, v := range row {
			row[c] = cell(r, c, v)
		}
	}
	out, err := dataset.FromRows(tbl.Schema(), rows)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameTable requires equal cells, fingerprints and coded columns.
func sameTable(t *testing.T, got, want *dataset.Table) {
	t.Helper()
	if !reflect.DeepEqual(got.Rows(), want.Rows()) || got.Fingerprint() != want.Fingerprint() {
		t.Fatal("cells or fingerprint differ from the per-cell reference")
	}
	for c := 0; c < want.Schema().Len(); c++ {
		g, _ := got.CodedColumn(c)
		w, _ := want.CodedColumn(c)
		if !reflect.DeepEqual(g.Dict, w.Dict) || !reflect.DeepEqual(g.Codes, w.Codes) {
			t.Errorf("column %d: coded column differs from a fresh encoding", c)
		}
	}
}

// TestColumnWritersMatchPerCellReference checks that FullDomain and
// SuppressCells, which write whole coded columns, release exactly the cells
// and encoding a cell-by-cell rewrite would.
func TestColumnWritersMatchPerCellReference(t *testing.T) {
	tbl := synth.Census(300, 4)
	hs := synth.CensusHierarchies()
	attrs := []string{"age", "education", "marital-status", "sex"}
	node := lattice.Node{2, 1, 1, 0}
	got, err := FullDomain(tbl, attrs, hs, node)
	if err != nil {
		t.Fatal(err)
	}
	sameTable(t, got, writeCells(t, tbl, func(_, c int, v string) string {
		for i, a := range attrs {
			if tbl.Schema().MustIndex(a) == c && node[i] > 0 {
				h, _ := hs.Get(a)
				g, err := h.Generalize(v, node[i])
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
		}
		return v
	}))

	hide := map[int]bool{0: true, 7: true, 8: true, 299: true}
	rows := []int{8, 0, 299, 7, 8}
	got, err = SuppressCells(tbl, rows, []string{"occupation", "age"})
	if err != nil {
		t.Fatal(err)
	}
	occ, age := tbl.Schema().MustIndex("occupation"), tbl.Schema().MustIndex("age")
	sameTable(t, got, writeCells(t, tbl, func(r, c int, v string) string {
		if hide[r] && (c == occ || c == age) {
			return dataset.SuppressedValue
		}
		return v
	}))
	if _, err := SuppressCells(tbl, []int{300}, []string{"age"}); err == nil {
		t.Error("out-of-range row accepted")
	}
}

// TestFullDomainErrorNamesFirstRow: a value the hierarchy cannot generalize
// is reported at the first row holding it.
func TestFullDomainErrorNamesFirstRow(t *testing.T) {
	tbl, hs := testTable(t)
	rows := tbl.Rows()
	rows[1][1], rows[3][1] = "other", "other"
	bad, err := dataset.FromRows(tbl.Schema(), rows)
	if err != nil {
		t.Fatal(err)
	}
	_, err = FullDomain(bad, []string{"sex"}, hs, lattice.Node{1})
	if err == nil || !strings.Contains(err.Error(), `row 1 attribute "sex"`) {
		t.Fatalf("error = %v, want one naming row 1", err)
	}
}
