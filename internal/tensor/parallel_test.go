package tensor

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelForRunsEachIndexOnce: every index in [0, n) runs exactly once,
// for worker counts below, at and above n, including the inline paths.
func TestParallelForRunsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		for _, w := range []int{1, 2, 3, 8, 64} {
			counts := make([]atomic.Int32, n)
			ParallelFor(n, w, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, w, i, c)
				}
			}
		}
	}
}

// TestParallelForNested: a ParallelFor body may itself call ParallelFor
// (e.g. accel's per-group loop invoking a parallel kernel). The caller
// always participates in its own job, so saturation cannot deadlock.
func TestParallelForNested(t *testing.T) {
	var total atomic.Int64
	ParallelFor(8, 8, func(i int) {
		ParallelFor(16, 4, func(j int) { total.Add(1) })
	})
	if got := total.Load(); got != 8*16 {
		t.Fatalf("nested ParallelFor ran %d inner items, want %d", got, 8*16)
	}
}

// TestParallelForNestedOversubscribed: more helpers than pool workers, each
// outer item nesting a ParallelFor whose items block briefly. Every pool
// worker ends up inside an outer item; the inner callers must still return
// once their own claimed items finish, without waiting on helper requests
// queued behind the busy pool.
func TestParallelForNestedOversubscribed(t *testing.T) {
	outer := 2*runtime.NumCPU() + 1
	var total atomic.Int64
	done := make(chan struct{})
	go func() {
		ParallelFor(outer, outer, func(i int) {
			ParallelFor(4, 4, func(j int) {
				time.Sleep(time.Millisecond)
				total.Add(1)
			})
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested ParallelFor deadlocked")
	}
	if got := total.Load(); got != int64(outer*4) {
		t.Fatalf("nested ParallelFor ran %d inner items, want %d", got, outer*4)
	}
}
