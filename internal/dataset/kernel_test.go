package dataset

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// This file locks down the chunked scan kernels (see internal/parallel):
// parallel GroupBy and snapshot encode/decode must be
// byte-identical to their sequential paths for every worker count. The
// fixtures are generated with a private LCG so the tests need no imports
// from packages that depend on dataset.

// kernelRows generates n deterministic pseudo-random rows over small value
// alphabets, so groups recur across chunk boundaries and the parallel merge
// path is genuinely exercised.
func kernelRows(n int, seed uint64) []Row {
	state := seed*2862933555777941757 + 3037000493
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(mod))
	}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			fmt.Sprintf("%d", 18+next(60)),
			fmt.Sprintf("1%02d", next(8)),
			[]string{"flu", "cancer", "asthma", "diabetes"}[next(4)],
		}
	}
	return rows
}

func kernelTable(t *testing.T, n int, seed uint64) *Table {
	t.Helper()
	tbl, err := FromRows(fpSchema(), kernelRows(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// forceSmallChunks shrinks the kernel chunking thresholds so multi-chunk
// parallel paths run on test-sized fixtures, restoring them on cleanup.
func forceSmallChunks(t *testing.T) {
	t.Helper()
	saved := groupByMinChunk
	groupByMinChunk = 16
	t.Cleanup(func() { groupByMinChunk = saved })
}

// TestGroupByWorkersEquivalence: the chunked grouping pass must reproduce
// the sequential output exactly — class order, values and member row
// order — for every worker count, and both must agree with the naive
// oracle.
func TestGroupByWorkersEquivalence(t *testing.T) {
	forceSmallChunks(t)
	for _, n := range []int{1, 15, 16, 100, 1000} {
		tbl := kernelTable(t, n, uint64(n))
		want, err := tbl.GroupBy("age", "zip")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, groupOracle(t, tbl, "age", "zip")) {
			t.Fatalf("n=%d: sequential grouping disagrees with the oracle", n)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			par := kernelTable(t, n, uint64(n))
			par.SetScanWorkers(workers)
			got, err := par.GroupBy("age", "zip")
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d workers=%d: parallel GroupBy differs from sequential", n, workers)
			}
		}
	}
}

// TestGroupByWorkersOnSameTable re-runs grouping on one shared handle across
// worker counts (the server pattern: one stored table, many requests) and
// checks the classes stay identical call over call.
func TestGroupByWorkersOnSameTable(t *testing.T) {
	forceSmallChunks(t)
	tbl := kernelTable(t, 800, 7)
	want, err := tbl.GroupByQuasiIdentifier()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{8, 2, 4, 1} {
		tbl.SetScanWorkers(workers)
		got, err := tbl.GroupByQuasiIdentifier()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: grouping changed under worker count", workers)
		}
	}
}

// TestFingerprintGolden pins the committed fingerprint values. These
// constants are load-bearing: they key the cross-request result cache and
// name content-addressed store files (tables/<fp>.tbl), so any change to the
// hash — including a parallel restructure — is a breaking format change and
// must fail here.
func TestFingerprintGolden(t *testing.T) {
	const (
		fixtureFP = "545356f800130287b4fb89ed8b2eb980"
		emptyFP   = "df2bcf43b1a7ef7b645b67027bdd0638"
	)
	tbl, err := FromRows(fpSchema(), fpRows())
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Fingerprint(); got != fixtureFP {
		t.Errorf("fixture fingerprint = %s, want %s (committed cache keys and store filenames depend on it)", got, fixtureFP)
	}
	if got := NewTable(fpSchema()).Fingerprint(); got != emptyFP {
		t.Errorf("empty-table fingerprint = %s, want %s", got, emptyFP)
	}
	// The parallel rebuild must reproduce the same committed value.
	forceSmallChunks(t)
	par, err := FromRows(fpSchema(), fpRows())
	if err != nil {
		t.Fatal(err)
	}
	par.SetScanWorkers(8)
	if got := par.Fingerprint(); got != fixtureFP {
		t.Errorf("parallel fixture fingerprint = %s, want %s", got, fixtureFP)
	}
}

// TestFingerprintMatchesReference: the coded fold must equal the plain
// cell-by-cell hash for every table size, whatever the scan-worker bound.
func TestFingerprintMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 31, 64, 200, 1000} {
		want := referenceRowsHash(kernelRows(n, uint64(n)))
		for _, workers := range []int{1, 8} {
			tbl := kernelTable(t, n, uint64(n))
			tbl.SetScanWorkers(workers)
			tbl.hash.Store(nil) // refold from the columns
			if got := tbl.rowsHash().sum(); got != want {
				t.Errorf("n=%d workers=%d: coded fold %s != reference %s", n, workers, got, want)
			}
		}
	}
}

// TestSnapshotWorkersByteIdentical: WriteSnapshot must emit the same bytes
// whatever the scan-worker bound (the parallel pass only computes segment
// CRCs concurrently), and a parallel decode must reconstruct the same table.
func TestSnapshotWorkersByteIdentical(t *testing.T) {
	tbl := kernelTable(t, 500, 11)
	var seq bytes.Buffer
	if err := tbl.WriteSnapshot(&seq); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par := kernelTable(t, 500, 11)
		par.SetScanWorkers(workers)
		var buf bytes.Buffer
		if err := par.WriteSnapshot(&buf); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(seq.Bytes(), buf.Bytes()) {
			t.Errorf("workers=%d: snapshot bytes differ from sequential encode", workers)
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		mt, err := snapshotFromMapping("kernel_test", seq.Bytes(), workers)
		if err != nil {
			t.Fatalf("decode workers=%d: %v", workers, err)
		}
		if err := mt.VerifyContent(); err != nil {
			t.Errorf("decode workers=%d: %v", workers, err)
		}
		if got, want := mt.Table().Fingerprint(), tbl.Fingerprint(); got != want {
			t.Errorf("decode workers=%d: fingerprint %s != %s", workers, got, want)
		}
	}
}

// TestScanWorkersInheritance: derived tables carry the scan-worker bound so
// one setting at ingest covers the whole pipeline.
func TestScanWorkersInheritance(t *testing.T) {
	tbl := kernelTable(t, 10, 3)
	tbl.SetScanWorkers(6)
	clone := tbl.Clone()
	if got := clone.ScanWorkers(); got != 6 {
		t.Errorf("Clone scan workers = %d, want 6", got)
	}
	proj, err := tbl.Project("age", "zip")
	if err != nil {
		t.Fatal(err)
	}
	if got := proj.ScanWorkers(); got != 6 {
		t.Errorf("Project scan workers = %d, want 6", got)
	}
	sel, err := tbl.Select([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := sel.ScanWorkers(); got != 6 {
		t.Errorf("Select scan workers = %d, want 6", got)
	}
	view, err := tbl.WithSchema(fpSchema())
	if err != nil {
		t.Fatal(err)
	}
	if got := view.ScanWorkers(); got != 6 {
		t.Errorf("WithSchema scan workers = %d, want 6", got)
	}
	tbl.SetScanWorkers(-5)
	if got := tbl.ScanWorkers(); got != 0 {
		t.Errorf("negative scan workers stored as %d, want 0", got)
	}
}
