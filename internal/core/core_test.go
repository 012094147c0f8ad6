package core

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/pipeline"
)

// defaultOptions is the full HILOS configuration of Fig. 10.
func defaultOptions(devices int) Options {
	return Options{Devices: devices, XCache: true, DelayedWriteback: true, Alpha: -1, SpillInterval: 16}
}

func req(m model.Config, bs, ctx int) pipeline.Request {
	return pipeline.Request{Model: m, Batch: bs, Context: ctx, OutputLen: 64}
}

func TestRunBasics(t *testing.T) {
	tb := device.DefaultTestbed()
	r := Run(tb, req(model.OPT66B, 16, 32768), defaultOptions(8))
	if r.OOM {
		t.Fatalf("unexpected OOM: %s", r.Reason)
	}
	if r.Batch != 16 || r.Devices != 8 {
		t.Errorf("batch/devices = %d/%d", r.Batch, r.Devices)
	}
	if r.DecodeTokPerSec() <= 0 || r.PrefillSec <= 0 {
		t.Error("non-positive metrics")
	}
	if r.DecodeWriteBytesPerStep <= 0 {
		t.Error("no write accounting")
	}
}

// Fig. 10: HILOS beats FLEX(SSD) at every device count, scaling with
// devices; at long contexts HILOS(16) lands in the paper's 5.3–7.8× band.
func TestFig10Speedups(t *testing.T) {
	tb := device.DefaultTestbed()
	for _, m := range []model.Config{model.OPT66B, model.OPT175B} {
		r := req(m, 16, 131072)
		base := baseline.FlexSSD(tb).Run(tb, r).DecodeTokPerSec()
		prev := base
		for _, n := range []int{4, 8, 16} {
			got := Run(tb, r, defaultOptions(n)).DecodeTokPerSec()
			if got <= prev {
				t.Errorf("%s: HILOS(%d) %.4f not above previous %.4f", m.Name, n, got, prev)
			}
			prev = got
		}
		ratio := prev / base
		if ratio < 5.0 || ratio > 8.0 {
			t.Errorf("%s@128K: HILOS(16) = %.2f× FLEX(SSD), paper band is 5.3–7.8×", m.Name, ratio)
		}
	}
}

// Fig. 11(a): HILOS scales effectively up to batch 16 while the baselines
// are capacity- or I/O-bound.
func TestBatchScaling(t *testing.T) {
	tb := device.DefaultTestbed()
	t1 := Run(tb, req(model.OPT66B, 1, 32768), defaultOptions(16)).DecodeTokPerSec()
	t8 := Run(tb, req(model.OPT66B, 8, 32768), defaultOptions(16)).DecodeTokPerSec()
	if t8 < 4*t1 {
		t.Errorf("HILOS batch scaling 1→8 only %.2f×, want ≥ 4×", t8/t1)
	}
}

// Fig. 15 ablation ordering: ANS < ANS+WB < ANS+X < ANS+WB+X, all above
// FLEX(SSD).
func TestAblationOrdering(t *testing.T) {
	tb := device.DefaultTestbed()
	for _, m := range []model.Config{model.OPT30B, model.OPT66B, model.GLaM143B} {
		r := req(m, 16, 65536)
		base := baseline.FlexSSD(tb).Run(tb, r).DecodeTokPerSec()
		ans := Run(tb, r, Options{Devices: 8, Alpha: -1}).DecodeTokPerSec()
		wb := Run(tb, r, Options{Devices: 8, DelayedWriteback: true, Alpha: -1}).DecodeTokPerSec()
		x := Run(tb, r, Options{Devices: 8, XCache: true, Alpha: -1}).DecodeTokPerSec()
		both := Run(tb, r, Options{Devices: 8, XCache: true, DelayedWriteback: true, Alpha: -1}).DecodeTokPerSec()
		if !(base < ans && ans < wb && wb < x && x < both) {
			t.Errorf("%s ablation not ordered: base=%.3f ans=%.3f wb=%.3f x=%.3f both=%.3f",
				m.Name, base, ans, wb, x, both)
		}
	}
}

// Fig. 13: throughput peaks at spill interval c=16 for every α, and α=50%
// is the best ratio at the default 8-device configuration.
func TestSpillIntervalOptimum(t *testing.T) {
	tb := device.DefaultTestbed()
	run := func(alpha float64, c int) float64 {
		return Run(tb, req(model.OPT30B, 16, 32768), Options{
			Devices: 8, XCache: alpha > 0, DelayedWriteback: true,
			Alpha: alpha, SpillInterval: c,
		}).DecodeTokPerSec()
	}
	for _, alpha := range []float64{0, 0.25, 0.5, 0.75} {
		best := run(alpha, 16)
		for _, c := range []int{2, 4, 64} {
			if got := run(alpha, c); got > best {
				t.Errorf("α=%.2f: c=%d (%.3f) beats c=16 (%.3f)", alpha, c, got, best)
			}
		}
	}
	if run(0.5, 16) <= run(0.25, 16) || run(0.5, 16) <= run(0.75, 16) {
		t.Error("α=50% is not the best ratio at the default configuration")
	}
}

// §7.3: scaling c from 16 to 64 loses meaningful throughput to XRT DMA
// orchestration overhead.
func TestLargeSpillIntervalPenalty(t *testing.T) {
	tb := device.DefaultTestbed()
	run := func(c int) float64 {
		return Run(tb, req(model.OPT30B, 16, 32768), Options{
			Devices: 8, XCache: true, DelayedWriteback: true, Alpha: 0.5, SpillInterval: c,
		}).DecodeTokPerSec()
	}
	loss := 1 - run(64)/run(16)
	if loss < 0.05 {
		t.Errorf("c=16→64 loss = %.1f%%, paper reports a pronounced drop", loss*100)
	}
}

// §4.2/Fig. 4(c): after offloading, the host stays underutilized.
func TestHostUnderutilized(t *testing.T) {
	tb := device.DefaultTestbed()
	r := Run(tb, req(model.OPT66B, 16, 32768), Options{Devices: 8}) // ANS only
	if r.HostUtilCPU > 0.2 || r.HostUtilGPU > 0.2 {
		t.Errorf("host util CPU=%.2f GPU=%.2f, paper reports < 20%%", r.HostUtilCPU, r.HostUtilGPU)
	}
	base := baseline.FlexSSD(tb).Run(tb, req(model.OPT66B, 16, 32768))
	if base.HostUtilCPU <= r.HostUtilCPU {
		t.Error("baseline CPU utilization not above HILOS")
	}
}

// X-cache halves the storage footprint of its portion (MHA): decode write
// traffic falls versus pure ANS+WB.
func TestXCacheReducesWrites(t *testing.T) {
	tb := device.DefaultTestbed()
	r := req(model.OPT66B, 16, 32768)
	wb := Run(tb, r, Options{Devices: 8, DelayedWriteback: true})
	both := Run(tb, r, Options{Devices: 8, DelayedWriteback: true, XCache: true, Alpha: 0.5})
	if both.DecodeWriteBytesPerStep >= wb.DecodeWriteBytesPerStep {
		t.Errorf("X-cache writes %.0f not below KV-only %.0f",
			both.DecodeWriteBytesPerStep, wb.DecodeWriteBytesPerStep)
	}
}

// GQA models (ρ < 1) must auto-disable the X-cache.
func TestGQADisablesXCache(t *testing.T) {
	tb := device.DefaultTestbed()
	a, err := ChooseAlpha(tb, model.Qwen2532B, 16, 32768, 16)
	if err != nil || a != 0 {
		t.Errorf("Qwen α = %v, %v; want 0", a, err)
	}
	a, err = ChooseAlpha(tb, model.OPT66B, 16, 32768, 8)
	if err != nil || a != 0.5 {
		t.Errorf("OPT-66B α at 8 devices = %v, %v; want 0.5 (§6.4)", a, err)
	}
}

func TestCapacityOOM(t *testing.T) {
	tb := device.DefaultTestbed()
	// Pure ANS (no X-cache halving): 175B@256K KV (~20 TB) exceeds four
	// SmartSSDs, so the batch shrinks.
	r := Run(tb, req(model.OPT175B, 16, 262144), Options{Devices: 4, DelayedWriteback: true})
	if r.OOM {
		t.Fatalf("unexpected hard OOM: %s", r.Reason)
	}
	if r.Batch >= 16 {
		t.Errorf("ANS batch = %d, expected capacity-shrunk < 16", r.Batch)
	}
	// With X-cache at α=0.75 the same workload fits at full batch — the
	// §6.6 storage-footprint benefit of caching X instead of K/V.
	rx := Run(tb, req(model.OPT175B, 16, 262144), Options{Devices: 4, XCache: true, DelayedWriteback: true, Alpha: 0.75})
	if rx.OOM || rx.Batch != 16 {
		t.Errorf("X-cache run batch = %d (OOM=%v), want 16", rx.Batch, rx.OOM)
	}
}

func TestOptionsNameAndNormalize(t *testing.T) {
	if defaultOptions(16).Name() != "HILOS (16 SmartSSDs)" {
		t.Errorf("name = %q", defaultOptions(16).Name())
	}
	if (Options{}).Name() != "ANS" {
		t.Errorf("ANS name = %q", (Options{}).Name())
	}
	n := (Options{}).normalize()
	if n.Devices != 8 || n.SpillInterval != 16 || n.Alpha != 0 {
		t.Errorf("normalize = %+v", n)
	}
}

func TestDeterminism(t *testing.T) {
	tb := device.DefaultTestbed()
	a := Run(tb, req(model.OPT66B, 16, 32768), defaultOptions(8))
	b := Run(tb, req(model.OPT66B, 16, 32768), defaultOptions(8))
	if a.StepSec != b.StepSec {
		t.Error("HILOS simulation not deterministic")
	}
}

// Fig. 14: longer outputs amortize prefill, raising effective speedup.
func TestOutputLengthAmortization(t *testing.T) {
	tb := device.DefaultTestbed()
	r := req(model.OPT30B, 16, 16384)
	h := Run(tb, r, defaultOptions(8))
	f := baseline.FlexSSD(tb).Run(tb, r)
	sp16 := f.TotalSec(16) / h.TotalSec(16)
	sp128 := f.TotalSec(128) / h.TotalSec(128)
	if sp128 <= sp16 {
		t.Errorf("speedup did not grow with output length: %.2f vs %.2f", sp16, sp128)
	}
}
