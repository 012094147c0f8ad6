//go:build !race

package sim

import (
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

// TestSchedulerSpeedup floors the event-driven Run at 5x faster than the
// O(n²) RunReference on the 5,000-task BenchmarkSchedulerListScheduling
// graph, building the graph included.
func TestSchedulerSpeedup(t *testing.T) {
	const floor = 5.0
	got := speedup(5, 2,
		func() { pipelineGraph(true).RunReference() },
		func() { pipelineGraph(true).Run() })
	t.Logf("Run %.0fx faster than RunReference (floor %.0fx)", got, floor)
	if got < floor {
		t.Errorf("Run only %.1fx faster than RunReference, floor %.0fx", got, floor)
	}
}
