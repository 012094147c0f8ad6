package tensor

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
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

// TestMatMulParallelBitIdentical: a product above the parallel work floor
// must be bit-identical across worker counts — row results are index-owned,
// so sharding cannot move a single bit. (The dot-routed path reassociates
// relative to the old axpy loop, so cross-path comparison is a separate,
// tolerance-based test; bit-identity here is strictly worker-count
// invariance of one path.)
func TestMatMulParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	// 160×160 · 160×160 = 4.1M flops > matMulParallelFlops (2.1M).
	a := RandMat(rng, 160, 160, 1)
	b := RandMat(rng, 160, 160, 1)
	if a.Rows*a.Cols*b.Cols < matMulParallelFlops {
		t.Fatalf("test shape below parallel floor")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	par := MatMul(a, b)
	for _, w := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(w)
		if got := MatMul(a, b); !reflect.DeepEqual(par.Data, got.Data) {
			t.Fatalf("MatMul at GOMAXPROCS %d diverged", w)
		}
	}
}
