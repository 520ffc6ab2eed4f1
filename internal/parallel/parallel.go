// Package parallel provides the bounded, deterministic fork-join helpers
// shared by the algorithms that evaluate independent candidates concurrently
// (Incognito's lattice layers, TopDown's specialization candidates) and by
// the row-chunked scan kernels in internal/dataset and internal/metrics. The
// result is indexed like the input and the first error in index order wins,
// so callers behave identically for every worker count.
package parallel

import (
	"sync"
	"sync/atomic"
)

// MinChunk is the default smallest number of row-granular items a single
// chunk of a Fold call should hold. Below roughly a thousand rows the
// goroutine hand-off costs more than the scan itself, so smaller inputs run
// inline on the calling goroutine. Map deliberately has no such cutoff:
// its callers hand it a few coarse, expensive tasks (lattice nodes, scan
// candidates), where inlining small n would serialize exactly the work the
// pool exists for.
const MinChunk = 1024

// Map computes f(0..n-1) on a pool of at most workers goroutines and returns
// the results in index order. workers <= 1 runs sequentially on the calling
// goroutine (stopping at the first error); the parallel path stops claiming
// new indices after a failure and returns the failed index's error with the
// smallest position, keeping error reporting deterministic. f must be safe
// for concurrent calls when workers > 1.
func Map[T any](n, workers int, f func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			v, err := f(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				v, err := f(i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Fold splits [0, n) into at most workers contiguous chunks of at least
// minChunk items each (MinChunk when minChunk <= 0), computes fold(lo, hi)
// for every chunk concurrently, and combines the partial states strictly
// left to right with merge. When the input is too small to fill two chunks
// — or workers <= 1 — the whole range folds inline on the calling goroutine
// and merge is never called, so tiny inputs pay no goroutine overhead.
//
// Determinism contract: chunk boundaries depend on workers, so the combined
// state is identical for every worker count only when merge is exact —
// integer accumulation, map/list unions, anything boundary-invariant.
// Floating-point accumulation whose rounding depends on where the chunks
// split must not be folded directly; reformulate it into exact partials
// first (see metrics.NCP's count-based scan). Errors surface in chunk
// order: the lowest-indexed failing chunk wins, and a merge error wins over
// any fold error from a later chunk.
func Fold[S any](n, workers, minChunk int, fold func(lo, hi int) (S, error), merge func(acc, next S) (S, error)) (S, error) {
	if minChunk <= 0 {
		minChunk = MinChunk
	}
	chunks := n / minChunk
	if chunks > workers {
		chunks = workers
	}
	if chunks <= 1 {
		return fold(0, n)
	}
	parts, err := Map(chunks, workers, func(ci int) (S, error) {
		return fold(ci*n/chunks, (ci+1)*n/chunks)
	})
	if err != nil {
		var zero S
		return zero, err
	}
	acc := parts[0]
	for _, next := range parts[1:] {
		if acc, err = merge(acc, next); err != nil {
			var zero S
			return zero, err
		}
	}
	return acc, nil
}
