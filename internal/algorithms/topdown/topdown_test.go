package topdown

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"github.com/ppdp/ppdp/internal/privacy"
	"github.com/ppdp/ppdp/internal/synth"
	"github.com/ppdp/ppdp/internal/testctx"
)

func TestAnonymizeReachesK(t *testing.T) {
	tbl := synth.Hospital(600, 1)
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
	if res.Table.Len() != tbl.Len() {
		t.Errorf("row count changed: %d -> %d", tbl.Len(), res.Table.Len())
	}
}

func TestSpecializationIsMinimal(t *testing.T) {
	// Every further one-step specialization of the returned node must
	// violate the criteria — otherwise the walk stopped early.
	tbl := synth.Hospital(500, 2)
	hs := synth.HospitalHierarchies()
	qi := []string{"age", "zip", "sex"}
	res, err := Anonymize(tbl, Config{K: 10, QuasiIdentifiers: qi, Hierarchies: hs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Specializations == 0 && res.Node.Height() > 0 {
		// Having performed no specialization is only acceptable if the top
		// itself is the answer; in a 500-row table with k=10 at least one
		// specialization should be possible.
		t.Errorf("no specializations performed from %v", res.Node)
	}
}

func TestHigherKGeneralizesMore(t *testing.T) {
	tbl := synth.Hospital(500, 3)
	hs := synth.HospitalHierarchies()
	qi := []string{"age", "zip", "sex"}
	res5, err := Anonymize(tbl, Config{K: 5, QuasiIdentifiers: qi, Hierarchies: hs})
	if err != nil {
		t.Fatal(err)
	}
	res50, err := Anonymize(tbl, Config{K: 50, QuasiIdentifiers: qi, Hierarchies: hs})
	if err != nil {
		t.Fatal(err)
	}
	if res50.Node.Height() < res5.Node.Height() {
		t.Errorf("k=50 node %v lower than k=5 node %v", res50.Node, res5.Node)
	}
}

func TestWithLDiversity(t *testing.T) {
	tbl := synth.Hospital(800, 4)
	res, err := Anonymize(tbl, Config{
		K:                5,
		QuasiIdentifiers: []string{"age", "zip", "sex"},
		Hierarchies:      synth.HospitalHierarchies(),
		Extra:            []privacy.Criterion{privacy.DistinctLDiversity{L: 2, Sensitive: "diagnosis"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	classes, _ := res.Table.GroupBy("age", "zip", "sex")
	l, err := privacy.MeasureDistinctL(res.Table, classes, "diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	if l < 2 {
		t.Errorf("release not 2-diverse: %d", l)
	}
}

func TestConfigErrors(t *testing.T) {
	tbl := synth.Hospital(50, 6)
	hs := synth.HospitalHierarchies()
	if _, err := Anonymize(tbl, Config{K: 0, Hierarchies: hs}); !errors.Is(err, ErrConfig) {
		t.Errorf("k=0 error = %v", err)
	}
	if _, err := Anonymize(tbl, Config{K: 2}); !errors.Is(err, ErrConfig) {
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

// TestAnonymizeContextCancellation checks the context gate at the
// algorithm's natural unit of work (one candidate specialization),
// sequentially and on the parallel candidate pool: a canceled run returns
// ctx.Err() and no partial result, deterministically via a poll-counting
// context.
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
		for _, n := range []int{1, 4} {
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

// TestWorkersEquivalence locks in that the parallel candidate evaluation is
// deterministic: every worker count walks to the identical node and table.
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
		if res.Specializations != base.Specializations {
			t.Errorf("workers=%d steps %d != sequential %d", workers, res.Specializations, base.Specializations)
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

// benchmarkWorkers measures the specialization walk at a fixed worker
// count; the 1-vs-max pair quantifies the parallel speedup of the candidate
// pool.
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

func BenchmarkTopDownWorkers1(b *testing.B)   { benchmarkWorkers(b, 1) }
func BenchmarkTopDownWorkersMax(b *testing.B) { benchmarkWorkers(b, 0) }
