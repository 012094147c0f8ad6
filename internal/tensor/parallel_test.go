package tensor

import (
	"runtime"
	"strings"
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
// (e.g. accel's per-group loop invoking a parallel kernel). Every call owns
// its helpers, so nesting cannot deadlock.
func TestParallelForNested(t *testing.T) {
	var total atomic.Int64
	ParallelFor(8, 8, func(i int) {
		ParallelFor(16, 4, func(j int) { total.Add(1) })
	})
	if got := total.Load(); got != 8*16 {
		t.Fatalf("nested ParallelFor ran %d inner items, want %d", got, 8*16)
	}
}

// TestParallelForNestedOversubscribed: more outer workers than CPUs, each
// outer item nesting a ParallelFor whose items block briefly, so far more
// goroutines run than the host has CPUs. Every inner call must still return
// once its own helpers finish.
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

// TestParallelForLeavesNoGoroutines: a parallel call starts its helpers and
// waits for them, so once it returns the goroutine count falls back to what
// it was before, and no other goroutine is left running this package's code
// (which a pool started by an earlier test would be). Exited helpers may
// take a moment to be reaped, so the check polls for up to a second.
func TestParallelForLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	var total atomic.Int64
	ParallelFor(64, 4, func(i int) { total.Add(1) })
	if got := total.Load(); got != 64 {
		t.Fatalf("ParallelFor ran %d items, want 64", got)
	}
	after, left := runtime.NumGoroutine(), tensorGoroutines()
	for deadline := time.Now().Add(time.Second); (after > before || len(left) > 0) && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		after, left = runtime.NumGoroutine(), tensorGoroutines()
	}
	if after > before {
		t.Errorf("%d goroutines before a 4-worker ParallelFor, %d a second after it returned", before, after)
	}
	for _, g := range left {
		t.Errorf("goroutine still in package tensor a second after ParallelFor returned:\n%s", g)
	}
}

// tensorGoroutines returns the stack of every goroutine but the caller's
// that has a frame in this package or was started from one.
func tensorGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n")[1:] { // the caller's comes first
		if strings.Contains(g, "repro/internal/tensor.") {
			out = append(out, g)
		}
	}
	return out
}
