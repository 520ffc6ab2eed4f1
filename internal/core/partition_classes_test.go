package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/synth"
)

// TestPartitionClassesMatchGroupBy checks that the equivalence classes
// measurement derives from a partitioning run's groups
// (dataset.Table.GroupByPartition over engine.Result.Groups) equal the
// classes GroupBy finds by regrouping the released rows: same classes, same
// order, same rows and values. The census 5 000-row cases include runs whose
// groups recode to equal values and merge into one class; their group and
// class counts are pinned so the fixture keeps exercising the merge.
func TestPartitionClassesMatchGroupBy(t *testing.T) {
	census := synth.Census(5000, 42)
	cases := []struct {
		alg     string
		family  string
		tbl     *dataset.Table
		hs      *hierarchy.Set
		k       int
		strict  bool
		workers int
		qi      []string // run and measured QI (schema QI columns when nil)
		groups  int      // pinned group and class counts (0: not pinned)
		classes int
	}{
		{alg: "mondrian", family: "census", tbl: census, hs: synth.CensusHierarchies(), k: 5, workers: 1, groups: 777, classes: 776},
		{alg: "mondrian", family: "census", tbl: census, hs: synth.CensusHierarchies(), k: 5, workers: 4, groups: 777, classes: 776},
		{alg: "mondrian", family: "census", tbl: census, hs: synth.CensusHierarchies(), k: 25, workers: 1, groups: 149, classes: 148},
		{alg: "mondrian", family: "census", tbl: census, hs: synth.CensusHierarchies(), k: 25, workers: 4, groups: 149, classes: 148},
		{alg: "mondrian", family: "census", tbl: census, hs: synth.CensusHierarchies(), k: 2, workers: 4},
		{alg: "mondrian", family: "census", tbl: census, hs: synth.CensusHierarchies(), k: 10, strict: true, workers: 1},
		{alg: "mondrian", family: "census", tbl: census, hs: synth.CensusHierarchies(), k: 10, strict: true, workers: 4},
		{alg: "mondrian", family: "census", tbl: census, k: 10, workers: 1},
		{alg: "mondrian", family: "census", tbl: census, hs: synth.CensusHierarchies(), k: 10, workers: 4, qi: []string{"age", "sex", "education", "marital-status", "race"}},
		{alg: "mondrian", family: "hospital", tbl: synth.Hospital(3000, 7), hs: synth.HospitalHierarchies(), k: 5, workers: 1},
		{alg: "mondrian", family: "hospital", tbl: synth.Hospital(3000, 7), hs: synth.HospitalHierarchies(), k: 5, strict: true, workers: 4},
		{alg: "kmember", family: "census", tbl: synth.Census(300, 42), hs: synth.CensusHierarchies(), k: 5, workers: 1},
		{alg: "kmember", family: "census", tbl: synth.Census(300, 42), k: 10, workers: 4},
		{alg: "kmember", family: "hospital", tbl: synth.Hospital(300, 7), hs: synth.HospitalHierarchies(), k: 4, workers: 1},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s/%s/k=%d/strict=%v/workers=%d/hier=%v/qi=%d", c.alg, c.family, c.k, c.strict, c.workers, c.hs != nil, len(c.qi))
		t.Run(name, func(t *testing.T) {
			input, err := c.tbl.DropIdentifiers()
			if err != nil {
				t.Fatal(err)
			}
			alg, err := engine.Lookup(c.alg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := alg.Run(context.Background(), input, engine.Spec{K: c.k, QuasiIdentifiers: c.qi, Hierarchies: c.hs, Strict: c.strict, Workers: c.workers})
			if err != nil {
				t.Fatal(err)
			}
			if res.Groups == nil {
				t.Fatal("Result.Groups is nil")
			}
			qi := c.qi
			if qi == nil {
				qi = res.Table.Schema().QuasiIdentifierNames()
			}
			got, err := res.Table.GroupByPartition(res.Groups, qi...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := res.Table.GroupBy(qi...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("classes from %d groups differ from GroupBy's %d classes", len(res.Groups), len(want))
			}
			t.Logf("%d groups → %d classes", len(res.Groups), len(got))
			if c.groups != 0 && (len(res.Groups) != c.groups || len(got) != c.classes) {
				t.Errorf("%d groups → %d classes, want %d → %d", len(res.Groups), len(got), c.groups, c.classes)
			}
		})
	}
}
