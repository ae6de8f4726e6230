package ml

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Morsel-parallel training support. Parallel fits partition work into
// fixed-size row morsels (or single trees, for forests): workers claim
// morsels from a shared atomic cursor, accumulate per-morsel partial
// state, and the partials merge serially in morsel order. Because
// morsel boundaries and the merge order depend only on the input —
// never on the worker count or claim interleaving — a parallel fit
// produces byte-identical models at any worker count.

// fitMorselRows is the fixed row-morsel size of parallel training.
// It matches the engine's chunk size, but correctness only needs it
// constant: morsel boundaries define the floating-point summation
// grouping, which must not move with the worker count.
const fitMorselRows = 2048

// resolveWorkers clamps a requested worker count to [1, n] with 0 (or
// negative) meaning NumCPU.
func resolveWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// parallelMorsels runs fn over morsel indices 0..nm-1 on up to
// `workers` goroutines, handing out indices through a shared atomic
// cursor. fn must only write state owned by its morsel index.
func parallelMorsels(workers, nm int, fn func(mi int)) {
	workers = resolveWorkers(workers, nm)
	if workers == 1 {
		for i := 0; i < nm; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= nm {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// morselBounds returns the row range [lo, hi) of morsel mi over n rows.
func morselBounds(mi, n int) (int, int) {
	lo := mi * fitMorselRows
	hi := lo + fitMorselRows
	if hi > n {
		hi = n
	}
	return lo, hi
}

// numMorsels returns the morsel count covering n rows.
func numMorsels(n int) int {
	return (n + fitMorselRows - 1) / fitMorselRows
}
