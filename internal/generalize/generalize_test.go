package generalize

import (
	"errors"
	"testing"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/lattice"
)

func testTable(t *testing.T) (*dataset.Table, *hierarchy.Set) {
	t.Helper()
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "age", Kind: dataset.QuasiIdentifier, Type: dataset.Numeric},
		dataset.Attribute{Name: "sex", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "diag", Kind: dataset.Sensitive, Type: dataset.Categorical},
	)
	rows := []dataset.Row{
		{"23", "male", "flu"},
		{"27", "female", "flu"},
		{"31", "male", "hiv"},
		{"38", "female", "cancer"},
		{"45", "male", "flu"},
	}
	tbl, err := dataset.FromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	hs := hierarchy.MustSet(
		hierarchy.MustInterval("age", 0, 99, []float64{10, 25}),
		hierarchy.MustCategory("sex", map[string][]string{"male": {"*"}, "female": {"*"}}),
	)
	return tbl, hs
}

func TestFullDomain(t *testing.T) {
	tbl, hs := testTable(t)
	out, err := FullDomain(tbl, []string{"age", "sex"}, hs, lattice.Node{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := out.Value(0, 0)
	if v != "[20-30)" {
		t.Errorf("age recode = %q", v)
	}
	v, _ = out.Value(0, 1)
	if v != "*" {
		t.Errorf("sex recode = %q", v)
	}
	// Sensitive column untouched.
	v, _ = out.Value(0, 2)
	if v != "flu" {
		t.Errorf("sensitive changed: %q", v)
	}
	// Original table untouched.
	v, _ = tbl.Value(0, 0)
	if v != "23" {
		t.Errorf("original mutated: %q", v)
	}
	// Level 0 keeps values.
	same, err := FullDomain(tbl, []string{"age", "sex"}, hs, lattice.Node{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	v, _ = same.Value(2, 0)
	if v != "31" {
		t.Errorf("level 0 changed value: %q", v)
	}
}

func TestFullDomainErrors(t *testing.T) {
	tbl, hs := testTable(t)
	if _, err := FullDomain(tbl, []string{"age"}, hs, lattice.Node{1, 1}); !errors.Is(err, ErrNodeArity) {
		t.Errorf("arity error = %v", err)
	}
	if _, err := FullDomain(tbl, []string{"diag"}, hs, lattice.Node{1}); err == nil {
		t.Error("missing hierarchy accepted")
	}
	if _, err := FullDomain(tbl, []string{"nope"}, hs, lattice.Node{1}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := FullDomain(tbl, []string{"age"}, hs, lattice.Node{99}); err == nil {
		t.Error("invalid level accepted")
	}
}

func TestSuppressRows(t *testing.T) {
	tbl, _ := testTable(t)
	out, err := SuppressRows(tbl, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("len = %d", out.Len())
	}
	v, _ := out.Value(1, 0)
	if v != "31" {
		t.Errorf("row shift wrong: %q", v)
	}
	if _, err := SuppressRows(tbl, []int{99}); err == nil {
		t.Error("out of range row accepted")
	}
	none, err := SuppressRows(tbl, nil)
	if err != nil || none.Len() != tbl.Len() {
		t.Errorf("no-op suppression wrong: %v %d", err, none.Len())
	}
}

func TestSuppressCells(t *testing.T) {
	tbl, _ := testTable(t)
	out, err := SuppressCells(tbl, []int{0, 2}, []string{"age"})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := out.Value(0, 0)
	if v != dataset.SuppressedValue {
		t.Errorf("cell not suppressed: %q", v)
	}
	v, _ = out.Value(1, 0)
	if v != "27" {
		t.Errorf("untouched cell changed: %q", v)
	}
	v, _ = tbl.Value(0, 0)
	if v != "23" {
		t.Errorf("original mutated: %q", v)
	}
	if _, err := SuppressCells(tbl, []int{0}, []string{"nope"}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := SuppressCells(tbl, []int{99}, []string{"age"}); err == nil {
		t.Error("out of range row accepted")
	}
}

func TestRecodeGroups(t *testing.T) {
	tbl, hs := testTable(t)
	groups := [][]int{{0, 1, 2}, {3, 4}}
	out, err := RecodeGroups(tbl, []string{"age", "sex"}, hs, groups)
	if err != nil {
		t.Fatal(err)
	}
	// Group 0 ages 23..31 -> [23-32); sexes differ -> lowest common generalization "*".
	v, _ := out.Value(0, 0)
	if v != "[23-32)" {
		t.Errorf("group0 age = %q", v)
	}
	v, _ = out.Value(1, 1)
	if v != "*" {
		t.Errorf("group0 sex = %q", v)
	}
	// Group 1 ages 38..45.
	v, _ = out.Value(3, 0)
	if v != "[38-46)" {
		t.Errorf("group1 age = %q", v)
	}
	// Equivalence classes over recoded QI should match the groups.
	classes, err := out.GroupBy("age", "sex")
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 2 {
		t.Errorf("recoded classes = %d", len(classes))
	}
}

func TestRecodeGroupsSingleValueAndSet(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "city", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
	)
	tbl, _ := dataset.FromRows(schema, []dataset.Row{{"atlanta"}, {"boston"}, {"atlanta"}})
	// No hierarchy: distinct values fall back to a set.
	out, err := RecodeGroups(tbl, []string{"city"}, nil, [][]int{{0, 1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := out.Value(0, 0)
	if v != "{atlanta,boston}" {
		t.Errorf("set recode = %q", v)
	}
	v, _ = out.Value(2, 0)
	if v != "atlanta" {
		t.Errorf("singleton recode = %q", v)
	}
}

func TestRecodeGroupsErrors(t *testing.T) {
	tbl, hs := testTable(t)
	if _, err := RecodeGroups(tbl, []string{"nope"}, hs, [][]int{{0}}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := RecodeGroups(tbl, []string{"age"}, hs, [][]int{{}}); err == nil {
		t.Error("empty group accepted")
	}
	if _, err := RecodeGroups(tbl, []string{"age"}, hs, [][]int{{99}}); err == nil {
		t.Error("out of range row accepted")
	}
	if _, err := RecodeGroups(tbl, []string{"age"}, hs, [][]int{{0, 1}, {1, 2}}); err == nil {
		t.Error("overlapping groups accepted")
	}
}

func TestValueSetDeterministic(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "city", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
	)
	tbl, _ := dataset.FromRows(schema, []dataset.Row{{"b"}, {"a"}, {"b"}, {"c"}})
	out, err := RecodeGroups(tbl, []string{"city"}, nil, [][]int{{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := out.Value(0, 0); a != "{a,b,c}" {
		t.Errorf("valueSet = %q", a)
	}
	if a := oracleValueSet([]string{"b", "a", "b", "c"}); a != "{a,b,c}" {
		t.Errorf("oracle valueSet = %q", a)
	}
}

func TestLowestCommonGeneralization(t *testing.T) {
	h := hierarchy.MustCategory("edu", map[string][]string{
		"bachelors": {"higher", "any"},
		"masters":   {"higher", "any"},
		"hs-grad":   {"secondary", "any"},
	})
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "edu", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
	)
	tbl, _ := dataset.FromRows(schema, []dataset.Row{
		{"bachelors"}, {"masters"}, {"bachelors"}, {"hs-grad"}, {"bachelors"}, {"unknown"},
	})
	groups := [][]int{{0, 1}, {2, 3}, {4, 5}}
	out, err := RecodeGroups(tbl, []string{"edu"}, hierarchy.MustSet(h), groups)
	if err != nil {
		t.Fatal(err)
	}
	// A value the hierarchy cannot generalize falls back to the value set.
	want := []string{"higher", "any", "{bachelors,unknown}"}
	for gi, w := range want {
		if g, _ := out.Value(groups[gi][0], 0); g != w {
			t.Errorf("group %d lcg = %q, want %q", gi, g, w)
		}
	}
	if g, ok := oracleLCG(h, []string{"bachelors", "masters"}); !ok || g != "higher" {
		t.Errorf("oracle lcg = %q, %v", g, ok)
	}
	if _, ok := oracleLCG(h, []string{"bachelors", "unknown"}); ok {
		t.Error("oracle lcg with unknown value should fail")
	}
}
