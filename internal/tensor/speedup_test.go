//go:build !race

package tensor

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"
)

// speedup times slow and fast alternately, reps calls per sample, for
// rounds rounds, and returns the median of the per-round ratios
// slow/fast. Pairing adjacent samples puts host drift and load from other
// test processes on both sides, and the median drops the rounds a burst
// of noise hit.
func speedup(rounds, reps int, slow, fast func()) float64 {
	sample := func(f func()) float64 {
		runtime.GC()
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		return float64(time.Since(t0))
	}
	ratios := make([]float64, rounds)
	for r := range ratios {
		ratios[r] = sample(slow) / sample(fast)
	}
	slices.Sort(ratios)
	return ratios[rounds/2]
}

// TestDotSpeedup floors the 8-lane striped Dot at 1.3x over the scalar
// DotRef on the BenchmarkDot vectors. Lane striping is instruction-level
// parallelism, so the floor holds on one core.
func TestDotSpeedup(t *testing.T) {
	const floor = 1.3
	x, y := dotInputs()
	var sink float32
	got := speedup(5, 10000,
		func() { sink += DotRef(x, y) },
		func() { sink += Dot(x, y) })
	t.Logf("striped Dot %.2fx over DotRef (floor %.1fx)", got, floor)
	if got < floor {
		t.Errorf("striped Dot only %.2fx faster than DotRef, floor %.1fx", got, floor)
	}
	if math.IsNaN(float64(sink)) {
		t.Fatal("NaN sink")
	}
}
