package parallel

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdersResults(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		out, err := Map(50, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 50 {
			t.Fatalf("workers=%d: len=%d", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d]=%d", workers, i, v)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(0, 4, func(int) (string, error) { return "", errors.New("never called") })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty map = %v, %v", out, err)
	}
}

func TestMapFirstErrorWins(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	for _, workers := range []int{1, 4} {
		_, err := Map(20, workers, func(i int) (int, error) {
			switch i {
			case 3:
				return 0, errA
			case 7:
				return 0, errB
			}
			return i, nil
		})
		// Index 3 fails; in the sequential path index 7 is never reached, and
		// in the parallel path the smallest failed index is reported.
		if !errors.Is(err, errA) && !(workers > 1 && errors.Is(err, errB)) {
			t.Fatalf("workers=%d: err=%v", workers, err)
		}
		if err == nil {
			t.Fatalf("workers=%d: error swallowed", workers)
		}
	}
}

func TestMapStopsClaimingAfterFailure(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	_, err := Map(10_000, 4, func(i int) (int, error) {
		calls.Add(1)
		if i == 0 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := calls.Load(); n == 10_000 {
		t.Error("pool kept claiming work after a failure")
	}
}

// TestMapBoundsConcurrency pins the worker-cap semantics the scan kernels
// (and kmember's chunked scanBest) rely on: Map never runs more than
// `workers` invocations of f at once, whatever n is.
func TestMapBoundsConcurrency(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		var active, peak atomic.Int64
		_, err := Map(64, workers, func(i int) (int, error) {
			cur := active.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond) // widen the overlap window
			active.Add(-1)
			return i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if p := peak.Load(); p > int64(workers) {
			t.Errorf("workers=%d: observed %d concurrent calls", workers, p)
		}
	}
}

func TestFoldMatchesSequential(t *testing.T) {
	const n = 10_000
	want := 0
	for i := 0; i < n; i++ {
		want += i
	}
	sum := func(lo, hi int) (int, error) {
		s := 0
		for i := lo; i < hi; i++ {
			s += i
		}
		return s, nil
	}
	add := func(a, b int) (int, error) { return a + b, nil }
	for _, workers := range []int{0, 1, 2, 4, 8, 100} {
		for _, minChunk := range []int{0, 1, 64, n, 2 * n} {
			got, err := Fold(n, workers, minChunk, sum, add)
			if err != nil {
				t.Fatalf("workers=%d minChunk=%d: %v", workers, minChunk, err)
			}
			if got != want {
				t.Fatalf("workers=%d minChunk=%d: sum=%d want %d", workers, minChunk, got, want)
			}
		}
	}
}

// TestFoldMergeOrder proves partials merge strictly left to right: folding
// index ranges into slices must reassemble the identity permutation.
func TestFoldMergeOrder(t *testing.T) {
	const n = 4096
	got, err := Fold(n, 8, 16,
		func(lo, hi int) ([]int, error) {
			part := make([]int, 0, hi-lo)
			for i := lo; i < hi; i++ {
				part = append(part, i)
			}
			return part, nil
		},
		func(acc, next []int) ([]int, error) { return append(acc, next...), nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("len=%d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d]=%d: chunks merged out of order", i, v)
		}
	}
}

// TestFoldInlineCutoff: inputs too small to fill two minChunk-sized chunks
// run on the calling goroutine in a single fold call, and merge never runs.
func TestFoldInlineCutoff(t *testing.T) {
	folds, merges := 0, 0 // non-atomic on purpose: inline path is single-goroutine
	got, err := Fold(MinChunk*2-1, 8, 0,
		func(lo, hi int) (int, error) { folds++; return hi - lo, nil },
		func(a, b int) (int, error) { merges++; return a + b, nil })
	if err != nil || got != MinChunk*2-1 {
		t.Fatalf("got %d, %v", got, err)
	}
	if folds != 1 || merges != 0 {
		t.Errorf("folds=%d merges=%d; want 1 inline fold, no merges", folds, merges)
	}
	// workers <= 1 stays inline no matter how large n is.
	folds = 0
	if _, err := Fold(1_000_000, 1, 1,
		func(lo, hi int) (int, error) { folds++; return 0, nil },
		func(a, b int) (int, error) { merges++; return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if folds != 1 || merges != 0 {
		t.Errorf("workers=1: folds=%d merges=%d", folds, merges)
	}
}

func TestFoldErrors(t *testing.T) {
	boom := errors.New("boom")
	// Lowest-indexed failing chunk wins regardless of completion order.
	_, err := Fold(8192, 4, 1024,
		func(lo, hi int) (int, error) {
			if lo == 0 {
				return 0, boom
			}
			return hi - lo, nil
		},
		func(a, b int) (int, error) { return a + b, nil })
	if !errors.Is(err, boom) {
		t.Fatalf("fold error = %v", err)
	}
	// A merge error surfaces too.
	_, err = Fold(8192, 4, 1024,
		func(lo, hi int) (int, error) { return hi - lo, nil },
		func(a, b int) (int, error) { return 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("merge error = %v", err)
	}
}
