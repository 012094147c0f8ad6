package baseline

import (
	"testing"

	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/pipeline"
)

func req(m model.Config, bs, ctx int) pipeline.Request {
	return pipeline.Request{Model: m, Batch: bs, Context: ctx, OutputLen: 64}
}

func TestFlexSSDBasics(t *testing.T) {
	tb := device.DefaultTestbed()
	r := FlexSSD(tb).Run(tb, req(model.OPT66B, 16, 32768))
	if r.OOM {
		t.Fatalf("unexpected OOM: %s", r.Reason)
	}
	if r.Batch != 16 {
		t.Errorf("batch = %d, want 16", r.Batch)
	}
	if r.DecodeTokPerSec() <= 0 || r.PrefillSec <= 0 {
		t.Error("non-positive throughput or prefill")
	}
	// Fig. 2(b): KV cache I/O dominates (> 50% of busy time) for the
	// SSD-offloaded baseline at long context.
	if share := r.BreakdownShare(pipeline.LabelLoadKV); share < 0.5 {
		t.Errorf("LoadKV share = %.2f, want > 0.5 (Fig. 2b: >60%%)", share)
	}
	if r.DecodeWriteBytesPerStep <= 0 {
		t.Error("no decode write traffic recorded")
	}
}

// FLEX(SSD) throughput saturates with batch (KV I/O bound), while
// per-step latency grows ~linearly (Fig. 11a).
func TestFlexSSDBatchSaturation(t *testing.T) {
	tb := device.DefaultTestbed()
	t4 := FlexSSD(tb).Run(tb, req(model.OPT66B, 4, 32768)).DecodeTokPerSec()
	t16 := FlexSSD(tb).Run(tb, req(model.OPT66B, 16, 32768)).DecodeTokPerSec()
	if t16 > 1.25*t4 {
		t.Errorf("FLEX(SSD) scaled %0.2f× from bs=4 to 16; should saturate", t16/t4)
	}
}

func TestFlexDRAMCapacity(t *testing.T) {
	tb := device.DefaultTestbed()
	// 66B@64K: capacity limits the batch (Fig. 11a).
	r := FlexDRAM(tb).Run(tb, req(model.OPT66B, 16, 65536))
	if r.OOM {
		t.Fatalf("unexpected OOM: %s", r.Reason)
	}
	if r.Batch >= 4 {
		t.Errorf("FLEX(DRAM) batch = %d at 64K, expected capacity-limited < 4", r.Batch)
	}
	// 66B@128K: CPU OOM even at batch 1 (Fig. 10).
	r = FlexDRAM(tb).Run(tb, req(model.OPT66B, 16, 131072))
	if !r.OOM {
		t.Error("FLEX(DRAM) 66B@128K did not OOM")
	}
	if r.DecodeTokPerSec() != 0 {
		t.Error("OOM run reported throughput")
	}
}

// FLEX(DRAM) outperforms FLEX(SSD) where it fits but is dominated by
// weight loading (Fig. 11b).
func TestFlexDRAMBeatsSSDWhenFeasible(t *testing.T) {
	tb := device.DefaultTestbed()
	r := req(model.OPT66B, 16, 32768)
	ssd := FlexSSD(tb).Run(tb, r)
	dram := FlexDRAM(tb).Run(tb, r)
	if dram.DecodeTokPerSec() <= ssd.DecodeTokPerSec() {
		t.Errorf("FLEX(DRAM) %.3f not above FLEX(SSD) %.3f", dram.DecodeTokPerSec(), ssd.DecodeTokPerSec())
	}
	if share := dram.BreakdownShare(pipeline.LabelLoadWeight); share < 0.4 {
		t.Errorf("FLEX(DRAM) LoadWeight share = %.2f, want dominant (Fig. 11b)", share)
	}
}

// Fig. 10: FLEX(16 PCIe 3.0 SSDs) reaches only 0.64×–0.94× of FLEX(SSD)
// because the shared chassis uplink is below the dedicated root ports.
func TestFlex16SSDUnderperforms(t *testing.T) {
	tb := device.DefaultTestbed()
	for _, m := range []model.Config{model.OPT30B, model.OPT66B, model.OPT175B} {
		for _, ctx := range []int{32768, 131072} {
			r := req(m, 16, ctx)
			base := FlexSSD(tb).Run(tb, r).DecodeTokPerSec()
			got := Flex16SSD(tb).Run(tb, r).DecodeTokPerSec()
			ratio := got / base
			if ratio < 0.64 || ratio > 0.94 {
				t.Errorf("%s@%d: 16-SSD ratio %.2f outside the paper's [0.64, 0.94]", m.Name, ctx, ratio)
			}
		}
	}
}

// §6.3: DS+UVM suffers >4× slowdown relative to FLEX(DRAM) on weight-bound
// configurations.
func TestDeepSpeedUVMSlowdown(t *testing.T) {
	tb := device.DefaultTestbed()
	r := req(model.OPT66B, 16, 32768)
	dram := FlexDRAM(tb).Run(tb, r).DecodeTokPerSec()
	uvm := DeepSpeedUVM(tb).Run(tb, r).DecodeTokPerSec()
	if dram/uvm < 4 {
		t.Errorf("DS+UVM slowdown %.2f×, paper reports > 4×", dram/uvm)
	}
}

func TestBaselineDeterminism(t *testing.T) {
	tb := device.DefaultTestbed()
	r := req(model.OPT30B, 8, 16384)
	a := FlexSSD(tb).Run(tb, r)
	b := FlexSSD(tb).Run(tb, r)
	if a.StepSec != b.StepSec || a.PrefillSec != b.PrefillSec {
		t.Error("baseline simulation not deterministic")
	}
}

func TestVLLMFeasibility(t *testing.T) {
	tb := device.DefaultTestbed()
	v := DefaultVLLM()
	// 175B weights (350 GB) fit 8×48 GB only barely; KV is swapped.
	r := v.Run(tb, req(model.OPT175B, 16, 16384))
	if r.OOM {
		t.Fatalf("unexpected OOM: %s", r.Reason)
	}
	if r.Batch >= 16 {
		t.Errorf("vLLM batch = %d, expected swap-limited small batch (§6.6)", r.Batch)
	}
	// A hypothetical 480B model cannot even hold weights.
	big := model.OPT175B
	big.Name, big.Layers = "OPT-480B", 264
	r = v.Run(tb, req(big, 1, 4096))
	if !r.OOM {
		t.Error("oversized model did not OOM on vLLM")
	}
}

func TestVLLMThroughputDecreasesWithContext(t *testing.T) {
	tb := device.DefaultTestbed()
	v := DefaultVLLM()
	t16 := v.Run(tb, req(model.OPT175B, 16, 16384)).DecodeTokPerSec()
	t32 := v.Run(tb, req(model.OPT175B, 16, 32768)).DecodeTokPerSec()
	if t32 >= t16 {
		t.Errorf("vLLM throughput did not fall with context: %.3f vs %.3f", t16, t32)
	}
}

func TestInvalidRequestRejected(t *testing.T) {
	tb := device.DefaultTestbed()
	bad := pipeline.Request{Model: model.OPT30B, Batch: 0, Context: 1024, OutputLen: 1}
	if r := FlexSSD(tb).Run(tb, bad); !r.OOM {
		t.Error("invalid request not rejected by FlexGen engine")
	}
	if r := DefaultVLLM().Run(tb, bad); !r.OOM {
		t.Error("invalid request not rejected by vLLM engine")
	}
}
