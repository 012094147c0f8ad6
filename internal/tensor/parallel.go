package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the process-wide kernel worker pool: a fixed set of
// long-lived goroutines that the accelerator's chunk-sharded datapath
// borrows for the duration of one call. The experiment sweeps and the cluster's report prewarming
// fan out on the same pool. Launching goroutines per call would cost an
// allocation and a scheduler wakeup per worker per op; the pool makes a
// parallel kernel call cost one job descriptor allocation regardless of
// context length or worker count. There is no process-wide worker setting:
// every call names its worker count, and the default kernel entry points
// pass runtime.GOMAXPROCS(0).
//
// Determinism contract: ParallelFor runs fn(i) exactly once for every index,
// on an unspecified goroutine at an unspecified time. Callers keep the
// repository's bit-identical replay invariant by making fn(i) write only
// state owned by item i (index-ordered assembly) and by reducing item
// results in a fixed order afterwards (e.g. the accelerator's fixed-shape
// tree merge) — never in goroutine completion order.

// job is one ParallelFor invocation: a shared atomic item cursor plus the
// body. Pool workers and the submitting goroutine all drain the same cursor,
// so work balances across whoever is free without affecting which item runs
// which index. wg counts unfinished items, not helpers: the submitter waits
// only for items some goroutine has already claimed, never for a helper
// still queued behind busy pool workers.
type job struct {
	next atomic.Int64
	n    int
	fn   func(i int)
	wg   sync.WaitGroup
}

// run grabs items off the shared cursor until none remain.
func (j *job) run() {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= j.n {
			return
		}
		j.fn(i)
		j.wg.Done()
	}
}

var (
	poolOnce sync.Once
	poolJobs chan *job
)

// startPool launches the long-lived workers. Pool size is the physical CPU
// count; actual concurrency per call is bounded by the workers argument to
// ParallelFor, so an idle pool costs only parked goroutines.
func startPool() {
	n := runtime.NumCPU()
	poolJobs = make(chan *job, 4*n)
	for i := 0; i < n; i++ {
		go func() {
			for j := range poolJobs {
				j.run()
			}
		}()
	}
}

// ParallelFor runs fn(i) for every i in [0, n) using at most the given
// number of concurrent workers (the calling goroutine included). workers ≤ 1
// or n ≤ 1 runs inline with no synchronization. The caller always
// participates in draining the items and then waits only for items other
// goroutines have already claimed, so ParallelFor never deadlocks even when
// invoked from inside another ParallelFor body or when every pool worker is
// busy — helpers are opportunistic, progress is the caller's own.
//
// fn must confine its writes to state owned by item i; see the determinism
// contract above.
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
	poolOnce.Do(startPool)
	j := &job{n: n, fn: fn}
	j.wg.Add(n)
	for h := 0; h < workers-1; h++ {
		select {
		case poolJobs <- j:
		default:
			// Pool saturated (e.g. deeply nested calls): skip the helper;
			// the caller's own drain loop below guarantees completion.
		}
	}
	j.run()
	j.wg.Wait()
}
