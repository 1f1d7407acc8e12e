// Package par provides the minimal data-parallel helpers used by
// construction-time code (dataset encoding, ground-truth computation)
// and by the concurrent batch query path.
//
// Scan kernels themselves stay single-threaded: the paper measures
// single-core scan performance ("As PQ Scan parallelizes naturally over
// multiple queries by running each query on a different core, we focus on
// single-core performance", §3.1). That is why parallelism runs across
// queries, never across the cells of one query, and why a kernel never
// splits one partition scan across cores.
package par

import (
	"runtime"
	"sync"
)

// ForChunk splits [0, n) into one contiguous chunk per worker and runs
// body(lo, hi) on each, letting the body hoist per-worker scratch
// allocations out of the element loop.
func ForChunk(n int, body func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			body(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// For runs body(i) for every i in [0, n), distributing contiguous chunks
// over GOMAXPROCS workers. It returns once all calls completed. body must
// be safe for concurrent invocation on distinct indexes.
func For(n int, body func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				body(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}
