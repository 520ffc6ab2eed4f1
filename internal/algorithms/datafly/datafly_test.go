package datafly

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/privacy"
	"github.com/ppdp/ppdp/internal/synth"
	"github.com/ppdp/ppdp/internal/testctx"
)

func TestAnonymizeReachesK(t *testing.T) {
	tbl := synth.Hospital(600, 1)
	cfg := Config{
		K:              5,
		Hierarchies:    synth.HospitalHierarchies(),
		MaxSuppression: 0.05,
	}
	res, err := Anonymize(tbl, cfg)
	if err != nil {
		t.Fatalf("Anonymize: %v", err)
	}
	classes, err := res.Table.GroupByQuasiIdentifier()
	if err != nil {
		t.Fatal(err)
	}
	ok, _, err := privacy.CheckAll(res.Table, classes, privacy.KAnonymity{K: 5})
	if err != nil || !ok {
		t.Errorf("release not 5-anonymous: %v %v (min class %d)", ok, err, privacy.MeasureK(classes))
	}
	if res.Table.Len()+res.SuppressedRows != tbl.Len() {
		t.Errorf("row accounting wrong: %d released + %d suppressed != %d",
			res.Table.Len(), res.SuppressedRows, tbl.Len())
	}
	if float64(res.SuppressedRows) > cfg.MaxSuppression*float64(tbl.Len()) {
		t.Errorf("suppressed %d rows, budget %v", res.SuppressedRows, cfg.MaxSuppression*float64(tbl.Len()))
	}
	if len(res.Node) != len(res.QuasiIdentifiers) {
		t.Errorf("node arity %d != qi arity %d", len(res.Node), len(res.QuasiIdentifiers))
	}
	// The original table must be untouched.
	origClasses, _ := tbl.GroupByQuasiIdentifier()
	if privacy.MeasureK(origClasses) >= 5 {
		t.Skip("original already 5-anonymous; correlation check not meaningful")
	}
}

func TestAnonymizeHigherKGeneralizesMore(t *testing.T) {
	tbl := synth.Hospital(500, 2)
	hs := synth.HospitalHierarchies()
	res2, err := Anonymize(tbl, Config{K: 2, Hierarchies: hs, MaxSuppression: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	res25, err := Anonymize(tbl, Config{K: 25, Hierarchies: hs, MaxSuppression: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if res25.Node.Height() < res2.Node.Height() {
		t.Errorf("k=25 generalized less (%v) than k=2 (%v)", res25.Node, res2.Node)
	}
}

func TestAnonymizeConfigErrors(t *testing.T) {
	tbl := synth.Hospital(50, 3)
	hs := synth.HospitalHierarchies()
	cases := []Config{
		{K: 0, Hierarchies: hs},
		{K: 2, Hierarchies: nil},
		{K: 2, Hierarchies: hs, MaxSuppression: 1.5},
		{K: 2, Hierarchies: hs, QuasiIdentifiers: []string{"nonexistent"}},
	}
	for i, cfg := range cases {
		if _, err := Anonymize(tbl, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// Config errors specifically wrap ErrConfig.
	if _, err := Anonymize(tbl, Config{K: 0, Hierarchies: hs}); !errors.Is(err, ErrConfig) {
		t.Errorf("k=0 error = %v", err)
	}
}

func TestAnonymizeUnsatisfiable(t *testing.T) {
	// k greater than the table size can never be satisfied, and with a zero
	// suppression budget the algorithm must report failure.
	tbl := synth.Hospital(10, 4)
	_, err := Anonymize(tbl, Config{K: 50, Hierarchies: synth.HospitalHierarchies(), MaxSuppression: 0})
	if !errors.Is(err, ErrUnsatisfiable) {
		t.Errorf("expected ErrUnsatisfiable, got %v", err)
	}
}

func TestAnonymizeExplicitQISubset(t *testing.T) {
	tbl := synth.Hospital(400, 5)
	res, err := Anonymize(tbl, Config{
		K:                4,
		QuasiIdentifiers: []string{"age", "sex"},
		Hierarchies:      synth.HospitalHierarchies(),
		MaxSuppression:   0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	classes, err := res.Table.GroupBy("age", "sex")
	if err != nil {
		t.Fatal(err)
	}
	if privacy.MeasureK(classes) < 4 {
		t.Errorf("subset QI release not 4-anonymous: min class %d", privacy.MeasureK(classes))
	}
	// Columns outside the chosen QI must be untouched.
	origZips, _ := tbl.Domain("zip")
	gotZips, _ := res.Table.Domain("zip")
	if len(gotZips) > len(origZips) {
		t.Errorf("zip column changed: %v vs %v", gotZips, origZips)
	}
}

// TestSuppressionBudgetIsExact: a budget fraction admits every row count
// whose share does not exceed it — 29 of 100 rows at 0.29, although
// 0.29*100 truncates to 28.
func TestSuppressionBudgetIsExact(t *testing.T) {
	tbl, hs := budgetTable(t)
	res, err := Anonymize(tbl, Config{K: 2, Hierarchies: hs, MaxSuppression: 0.29})
	if err != nil {
		t.Fatal(err)
	}
	if res.Node.Height() != 0 || res.SuppressedRows != 29 {
		t.Errorf("node %v suppressed %d, want the original table with its 29 singletons suppressed", res.Node, res.SuppressedRows)
	}
}

// budgetTable returns 100 rows over one quasi-identifier: 71 share a value
// and 29 are unique, under a flat hierarchy.
func budgetTable(t *testing.T) (*dataset.Table, *hierarchy.Set) {
	t.Helper()
	schema := dataset.MustSchema(dataset.Attribute{Name: "zip", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical})
	rows := make([]dataset.Row, 100)
	domain := []string{"common"}
	for i := range rows {
		rows[i] = dataset.Row{"common"}
		if i < 29 {
			rows[i] = dataset.Row{fmt.Sprint("u", i)}
			domain = append(domain, rows[i][0])
		}
	}
	tbl, err := dataset.FromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hierarchy.NewFlatCategory("zip", domain)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, hierarchy.MustSet(h)
}

// TestAnonymizeContextCancellation checks the context gate at the
// algorithm's natural unit of work (one generalization round): a canceled
// run returns ctx.Err() and no partial result, deterministically via a
// poll-counting context.
func TestAnonymizeContextCancellation(t *testing.T) {
	tbl := synth.Hospital(600, 1)
	cfg := Config{K: 5, Hierarchies: synth.HospitalHierarchies(), MaxSuppression: 0.05}

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := AnonymizeContext(pre, tbl, cfg)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("pre-canceled: res=%v err=%v, want nil + context.Canceled", res, err)
	}
	// Mid-run: trip the context after n rounds; the run has started real
	// work but must still abandon it without publishing anything.
	for _, n := range []int{1, 2} {
		res, err := AnonymizeContext(testctx.CancelAfter(n), tbl, cfg)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("cancel after %d polls: res=%v err=%v, want nil + context.Canceled", n, res, err)
		}
	}
	// A live context is unaffected.
	if _, err := AnonymizeContext(context.Background(), tbl, cfg); err != nil {
		t.Fatalf("live context: %v", err)
	}
}

// BenchmarkDatafly measures a full Datafly run on 2000 census rows.
func BenchmarkDatafly(b *testing.B) {
	tbl := synth.Census(2000, 1)
	hs := synth.CensusHierarchies()
	qi := []string{"age", "sex", "education", "marital-status", "race"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Anonymize(tbl, Config{K: 10, QuasiIdentifiers: qi, Hierarchies: hs}); err != nil {
			b.Fatal(err)
		}
	}
}
