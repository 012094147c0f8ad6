//go:build !race

package hilos

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/tensor"
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

// TestTelemetryOverhead caps the cluster loop's cost with telemetry on at
// 2x its cost with telemetry off, on the BenchmarkClusterTelemetryOn/Off
// trace.
func TestTelemetryOverhead(t *testing.T) {
	const limit = 2.0
	onCfg, reqs := clusterBenchInput(t, true)
	offCfg, _ := clusterBenchInput(t, false)
	got := speedup(11, 20,
		func() { runCluster(t, onCfg, reqs) },
		func() { runCluster(t, offCfg, reqs) })
	t.Logf("telemetry on/off %.2fx (cap %.1fx)", got, limit)
	if got > limit {
		t.Errorf("telemetry on costs %.2fx telemetry off, cap %.1fx", got, limit)
	}
}

// TestAcceleratorParallelSpeedup floors the 16K accelerator datapath at
// 1.5x faster with 4 workers than with one, on the
// BenchmarkAcceleratorAttention16KSerial/Workers4 shape. The per-group
// statistics fold, the tree merge and normalization stay serial by design.
// Below GOMAXPROCS 4 no 4-worker speedup is measurable, so the floor skips.
func TestAcceleratorParallelSpeedup(t *testing.T) {
	if p := runtime.GOMAXPROCS(0); p < 4 {
		t.Skipf("GOMAXPROCS=%d < 4: a 4-worker speedup is not measurable here", p)
	}
	const floor = 1.5
	a, q, k, v := accelInputs(t, 16*1024)
	run := func(workers int) func() {
		return func() {
			if _, err := a.AttentionWorkers(q, k, v, nil, tensor.Mat{}, tensor.Mat{}, workers, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := speedup(3, 2, run(1), run(4))
	t.Logf("accelerator 4 workers %.2fx over serial (floor %.1fx)", got, floor)
	if got < floor {
		t.Errorf("accelerator 4 workers only %.2fx over serial, floor %.1fx", got, floor)
	}
}
