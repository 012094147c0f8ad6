package tensor

import (
	"sync"
	"sync/atomic"
)

// ParallelFor runs fn(i) for every i in [0, n) using at most the given
// number of concurrent workers (the calling goroutine included). It is the
// one fan-out helper of the accelerator's chunk-sharded datapath, the
// experiment sweeps and the cluster's report prewarm. workers ≤ 1 or n ≤ 1
// runs inline with no synchronization. Otherwise workers−1 helper
// goroutines and the caller drain one shared atomic cursor, and the call
// returns once every helper has exited: nothing outlives it, and a body may
// itself call ParallelFor without deadlock. A goroutine start is about a
// microsecond against the milliseconds of one accelerator decode step.
// Every call names its worker count; the default kernel entry points pass
// runtime.GOMAXPROCS(0).
//
// Determinism contract: fn(i) runs exactly once for every index, on an
// unspecified goroutine at an unspecified time. Callers keep the
// repository's bit-identical replay invariant by making fn(i) write only
// state owned by item i (index-ordered assembly) and by reducing item
// results in a fixed order afterwards (e.g. the accelerator's fixed-shape
// tree merge) — never in goroutine completion order.
func ParallelFor(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	drain := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()
}
