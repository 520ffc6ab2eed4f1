package core

import (
	"slices"
	"testing"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/hierarchy"
)

// TestDataflyKeepsSeparatorTuplesApart anonymizes two rows whose values
// differ only in where the 0x1f byte sits: ("a\x1fb", "c") and
// ("a", "b\x1fc") join to the same signature string, yet each row is unique
// on its quasi-identifier. Datafly with k=2 must generalize them, not
// release them unchanged as 2-anonymous.
func TestDataflyKeepsSeparatorTuplesApart(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "x", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "y", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
	)
	tbl, err := dataset.FromRows(schema, []dataset.Row{{"a\x1fb", "c"}, {"a", "b\x1fc"}})
	if err != nil {
		t.Fatal(err)
	}
	hx, err := hierarchy.NewFlatCategory("x", []string{"a\x1fb", "a"})
	if err != nil {
		t.Fatal(err)
	}
	hy, err := hierarchy.NewFlatCategory("y", []string{"c", "b\x1fc"})
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{Algorithm: Datafly, Policy: kPolicy(2), Hierarchies: hierarchy.MustSet(hx, hy)})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := a.Anonymize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(rel.Node, []int{0, 0}) {
		t.Fatalf("released at node %v with k=%d: both rows are unique on their quasi-identifier", rel.Node, rel.Measured.K)
	}
	classes, err := rel.Table.GroupBy("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if got := dataset.MinClassSize(classes); got < 2 || rel.Measured.K != got {
		t.Fatalf("release at node %v: smallest class %d, measured k=%d", rel.Node, got, rel.Measured.K)
	}
}
