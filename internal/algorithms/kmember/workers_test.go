package kmember

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ppdp/ppdp/internal/synth"
)

// TestWorkersEquivalence locks in that chunked parallel record scans are
// deterministic: every worker count builds the same clusters and releases
// the identical table. The 800-row fixture crosses the parallelScanMin
// threshold, so the parallel path actually runs.
func TestWorkersEquivalence(t *testing.T) {
	tbl := synth.Hospital(800, 1)
	base, err := Anonymize(tbl, Config{K: 5, Hierarchies: synth.HospitalHierarchies(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		res, err := Anonymize(tbl, Config{K: 5, Hierarchies: synth.HospitalHierarchies(), Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Groups) != len(base.Groups) {
			t.Fatalf("workers=%d cluster count %d != sequential %d", workers, len(res.Groups), len(base.Groups))
		}
		for g := range res.Groups {
			if len(res.Groups[g]) != len(base.Groups[g]) {
				t.Fatalf("workers=%d cluster %d size %d != %d", workers, g, len(res.Groups[g]), len(base.Groups[g]))
			}
			for i := range res.Groups[g] {
				if res.Groups[g][i] != base.Groups[g][i] {
					t.Errorf("workers=%d cluster %d row %d: %d != %d",
						workers, g, i, res.Groups[g][i], base.Groups[g][i])
				}
			}
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

// TestScanBestBoundsConcurrency pins the worker semantics of the chunked
// record scan: however the row set is chunked, scanBest must never run more
// than the configured workers score calls at once (the pool is capped at
// workers, not at the chunk count). The row count crosses parallelScanMin so
// the parallel path actually runs.
func TestScanBestBoundsConcurrency(t *testing.T) {
	rows := make([]int, 2*parallelScanMin)
	for i := range rows {
		rows[i] = i
	}
	for _, workers := range []int{1, 2, 3} {
		var active, peak atomic.Int64
		score := func(r int) float64 {
			cur := active.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(50 * time.Microsecond) // widen the overlap window
			active.Add(-1)
			return float64(r)
		}
		better := func(l float64, r int, bestL float64, bestR int) bool { return l < bestL }
		row, loss := scanBest(rows, workers, score, better)
		if row != 0 || loss != 0 {
			t.Fatalf("workers=%d: best = (%d, %v), want (0, 0)", workers, row, loss)
		}
		if p := peak.Load(); p > int64(workers) {
			t.Errorf("workers=%d: observed %d concurrent score calls", workers, p)
		}
	}
}

func TestWorkersNegativeRejected(t *testing.T) {
	tbl := synth.Hospital(50, 1)
	_, err := Anonymize(tbl, Config{K: 2, Workers: -1})
	if !errors.Is(err, ErrConfig) {
		t.Fatalf("Workers=-1: got %v, want ErrConfig", err)
	}
}

// benchmarkWorkers measures full k-member runs at a fixed worker count; the
// 1-vs-max pair quantifies the speedup of the parallel nearest-record scans
// dominating the quadratic growth phase.
func benchmarkWorkers(b *testing.B, workers int) {
	tbl := synth.Census(1000, 1)
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

func BenchmarkKMemberWorkers1(b *testing.B)   { benchmarkWorkers(b, 1) }
func BenchmarkKMemberWorkersMax(b *testing.B) { benchmarkWorkers(b, 0) }
