package incognito

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"

	"github.com/ppdp/ppdp/internal/privacy"
	"github.com/ppdp/ppdp/internal/synth"
	"github.com/ppdp/ppdp/internal/testctx"
)

func TestAnonymizeReachesK(t *testing.T) {
	tbl := synth.Hospital(500, 1)
	res, err := Anonymize(tbl, Config{
		K:                5,
		QuasiIdentifiers: []string{"age", "zip", "sex"},
		Hierarchies:      synth.HospitalHierarchies(),
	})
	if err != nil {
		t.Fatalf("Anonymize: %v", err)
	}
	classes, err := res.Table.GroupBy("age", "zip", "sex")
	if err != nil {
		t.Fatal(err)
	}
	if privacy.MeasureK(classes) < 5 {
		t.Errorf("release not 5-anonymous: min class %d", privacy.MeasureK(classes))
	}
	// No suppression: row count preserved.
	if res.Table.Len() != tbl.Len() {
		t.Errorf("row count changed: %d -> %d", tbl.Len(), res.Table.Len())
	}
	if len(res.MinimalNodes) == 0 {
		t.Error("no minimal nodes reported")
	}
	if res.NodesEvaluated <= 0 {
		t.Error("NodesEvaluated not recorded")
	}
}

func TestMinimalNodesAreMinimalAndSatisfying(t *testing.T) {
	tbl := synth.Hospital(300, 2)
	hs := synth.HospitalHierarchies()
	qi := []string{"age", "zip", "sex"}
	res, err := Anonymize(tbl, Config{K: 4, QuasiIdentifiers: qi, Hierarchies: hs})
	if err != nil {
		t.Fatal(err)
	}
	// No minimal node may dominate another.
	for i, a := range res.MinimalNodes {
		for j, b := range res.MinimalNodes {
			if i != j && a.Dominates(b) {
				t.Errorf("minimal node %v dominates %v", a, b)
			}
		}
	}
	// The chosen node must be among the minimal ones.
	found := false
	for _, m := range res.MinimalNodes {
		if slices.Equal(m, res.Node) {
			found = true
		}
	}
	if !found {
		t.Errorf("chosen node %v not in minimal set %v", res.Node, res.MinimalNodes)
	}
}

func TestExtraCriteria(t *testing.T) {
	tbl := synth.Hospital(500, 3)
	res, err := Anonymize(tbl, Config{
		K:                3,
		QuasiIdentifiers: []string{"age", "zip", "sex"},
		Hierarchies:      synth.HospitalHierarchies(),
		Extra: []privacy.Criterion{
			privacy.DistinctLDiversity{L: 2, Sensitive: "diagnosis"},
		},
	})
	if err != nil {
		t.Fatalf("Anonymize with l-diversity: %v", err)
	}
	classes, err := res.Table.GroupBy("age", "zip", "sex")
	if err != nil {
		t.Fatal(err)
	}
	l, err := privacy.MeasureDistinctL(res.Table, classes, "diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	if l < 2 {
		t.Errorf("release not 2-diverse: min distinct %d", l)
	}
}

// TestReleasesFirstLowestMinimalNode: the release is the minimal node of
// least height, the lexicographically first among minimal nodes of that
// height, and MinimalNodes lists it first.
func TestReleasesFirstLowestMinimalNode(t *testing.T) {
	tbl := synth.Hospital(300, 5)
	res, err := Anonymize(tbl, Config{K: 2, QuasiIdentifiers: []string{"age", "zip", "sex"}, Hierarchies: synth.HospitalHierarchies()})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.MinimalNodes[0], res.Node) {
		t.Errorf("released %v, first minimal node %v", res.Node, res.MinimalNodes[0])
	}
	for _, m := range res.MinimalNodes[1:] {
		if m.Height() < res.Node.Height() || (m.Height() == res.Node.Height() && slices.Compare(m, res.Node) < 0) {
			t.Errorf("minimal node %v precedes released %v", m, res.Node)
		}
	}
}

func TestConfigErrors(t *testing.T) {
	tbl := synth.Hospital(50, 6)
	hs := synth.HospitalHierarchies()
	if _, err := Anonymize(tbl, Config{K: 0, Hierarchies: hs}); !errors.Is(err, ErrConfig) {
		t.Errorf("k=0 error = %v", err)
	}
	if _, err := Anonymize(tbl, Config{K: 2, Hierarchies: nil}); !errors.Is(err, ErrConfig) {
		t.Errorf("nil hierarchies error = %v", err)
	}
	if _, err := Anonymize(tbl, Config{K: 2, Hierarchies: hs, QuasiIdentifiers: []string{"missing"}}); err == nil {
		t.Error("unknown QI accepted")
	}
}

func TestUnsatisfiable(t *testing.T) {
	tbl := synth.Hospital(10, 7)
	_, err := Anonymize(tbl, Config{
		K:                100,
		QuasiIdentifiers: []string{"age", "zip"},
		Hierarchies:      synth.HospitalHierarchies(),
	})
	if !errors.Is(err, ErrUnsatisfiable) {
		t.Errorf("expected ErrUnsatisfiable, got %v", err)
	}
}

func TestChosenNodeIsLowestHeightByDefault(t *testing.T) {
	tbl := synth.Hospital(400, 8)
	res, err := Anonymize(tbl, Config{
		K:                8,
		QuasiIdentifiers: []string{"age", "zip", "sex"},
		Hierarchies:      synth.HospitalHierarchies(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.MinimalNodes {
		if m.Height() < res.Node.Height() {
			t.Errorf("default score did not pick the lowest node: %v vs %v", res.Node, m)
		}
	}
}

// TestAnonymizeContextCancellation checks the context gate at the
// algorithm's natural unit of work (one lattice node), sequentially and on
// the parallel layer pool: a canceled run returns ctx.Err() and no partial
// result, deterministically via a poll-counting context.
func TestAnonymizeContextCancellation(t *testing.T) {
	tbl := synth.Hospital(600, 1)
	for _, workers := range []int{1, 4} {
		cfg := Config{K: 5, Hierarchies: synth.HospitalHierarchies(), Workers: workers}

		pre, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := AnonymizeContext(pre, tbl, cfg)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("workers=%d pre-canceled: res=%v err=%v, want nil + context.Canceled", workers, res, err)
		}
		for _, n := range []int{1, 6} {
			res, err := AnonymizeContext(testctx.CancelAfter(n), tbl, cfg)
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("workers=%d cancel after %d polls: res=%v err=%v, want nil + context.Canceled", workers, n, res, err)
			}
		}
		if _, err := AnonymizeContext(context.Background(), tbl, cfg); err != nil {
			t.Fatalf("workers=%d live context: %v", workers, err)
		}
	}
}

// TestWorkersEquivalence locks in that the parallel lattice-layer search is
// deterministic: every worker count releases the identical node, minimal
// set and table.
func TestWorkersEquivalence(t *testing.T) {
	tbl := synth.Hospital(800, 2)
	base, err := Anonymize(tbl, Config{K: 4, Hierarchies: synth.HospitalHierarchies(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		res, err := Anonymize(tbl, Config{K: 4, Hierarchies: synth.HospitalHierarchies(), Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Node.Key() != base.Node.Key() {
			t.Errorf("workers=%d node %v != sequential %v", workers, res.Node, base.Node)
		}
		if len(res.MinimalNodes) != len(base.MinimalNodes) {
			t.Fatalf("workers=%d minimal set size %d != %d", workers, len(res.MinimalNodes), len(base.MinimalNodes))
		}
		for i := range res.MinimalNodes {
			if res.MinimalNodes[i].Key() != base.MinimalNodes[i].Key() {
				t.Errorf("workers=%d minimal[%d] %v != %v", workers, i, res.MinimalNodes[i], base.MinimalNodes[i])
			}
		}
		if res.NodesEvaluated != base.NodesEvaluated {
			t.Errorf("workers=%d evaluated %d nodes != sequential %d", workers, res.NodesEvaluated, base.NodesEvaluated)
		}
		var seq, par bytes.Buffer
		if err := base.Table.WriteCSV(&seq); err != nil {
			t.Fatal(err)
		}
		if err := res.Table.WriteCSV(&par); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seq.Bytes(), par.Bytes()) {
			t.Errorf("workers=%d released table differs from sequential run", workers)
		}
	}
}

// benchmarkWorkers measures the lattice search at a fixed worker count; the
// 1-vs-max pair quantifies the parallel speedup of the layer pool.
func benchmarkWorkers(b *testing.B, workers int) {
	tbl := synth.Census(2000, 1)
	hs := synth.CensusHierarchies()
	qi := []string{"age", "sex", "education", "marital-status", "race"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Anonymize(tbl, Config{K: 10, QuasiIdentifiers: qi, Hierarchies: hs, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIncognitoWorkers1(b *testing.B)   { benchmarkWorkers(b, 1) }
func BenchmarkIncognitoWorkersMax(b *testing.B) { benchmarkWorkers(b, 0) }
