package pipeline

import (
	"testing"

	"repro/internal/device"
	"repro/internal/model"
)

func TestRequestValidate(t *testing.T) {
	ok := Request{Model: model.OPT30B, Batch: 1, Context: 1024, OutputLen: 4}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := ok
	bad.Batch = 0
	if err := bad.Validate(); err == nil {
		t.Error("batch=0 accepted")
	}
	bad = ok
	bad.Model.Heads = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestWeightsOnStorage(t *testing.T) {
	// §6.1: "models exceeding 100B parameters are offloaded to storage".
	if WeightsOnStorage(model.OPT30B) || WeightsOnStorage(model.OPT66B) {
		t.Error("sub-100B model placed on storage")
	}
	if !WeightsOnStorage(model.OPT175B) || !WeightsOnStorage(model.GLaM143B) {
		t.Error("100B+ model not placed on storage")
	}
}

func TestFitBatchDRAM(t *testing.T) {
	tb := device.DefaultTestbed()
	// OPT-66B at 64K: 154 GB/sequence of KV plus 132 GB weights in 333 GB
	// usable — only one sequence fits (Fig. 11: FLEX(DRAM) capacity-bound).
	bs := FitBatchDRAM(tb, model.OPT66B, 65536, 16)
	if bs != 1 {
		t.Errorf("66B@64K DRAM batch = %d, want 1", bs)
	}
	// At 128K not even one sequence fits: the paper's CPU OOM.
	if bs := FitBatchDRAM(tb, model.OPT66B, 131072, 16); bs != 0 {
		t.Errorf("66B@128K DRAM batch = %d, want 0 (CPU OOM)", bs)
	}
	// Short contexts fit the full requested batch.
	if bs := FitBatchDRAM(tb, model.OPT30B, 4096, 16); bs != 16 {
		t.Errorf("30B@4K DRAM batch = %d, want 16", bs)
	}
}

func TestFitBatchDRAMMonotone(t *testing.T) {
	tb := device.DefaultTestbed()
	prev := 1 << 30
	for _, ctx := range []int{8192, 16384, 32768, 65536, 131072} {
		bs := FitBatchDRAM(tb, model.OPT66B, ctx, 64)
		if bs > prev {
			t.Errorf("feasible batch grew with context at %d: %d > %d", ctx, bs, prev)
		}
		prev = bs
	}
}

func TestFitBatchStorage(t *testing.T) {
	tb := device.DefaultTestbed()
	// 4×3.84 TB holds OPT-175B/128K/bs16 KV (~10 TB) plus nothing else big.
	bs := FitBatchStorage(model.OPT175B, 131072, 16, tb.PlainSSD.CapBytes, 4)
	if bs != 16 {
		t.Errorf("175B@128K on 4 SSDs batch = %d, want 16", bs)
	}
	// 256K KV (~20 TB) exceeds the array.
	bs = FitBatchStorage(model.OPT175B, 262144, 16, tb.PlainSSD.CapBytes, 4)
	if bs >= 16 || bs < 1 {
		t.Errorf("175B@256K on 4 SSDs batch = %d, want reduced but ≥ 1", bs)
	}
}

// prefill returns the prefill latency of model m at batch bs and context s
// over the testbed's GPU link (and its uplink for storage-resident weights).
func prefill(tb device.Testbed, m model.Config, bs, s int, storeBW float64, storeBytes int64) float64 {
	st := NewStep(tb, m, bs, tb.Topo.GPULink.BW, false)
	st.Src = st.E.Resource(ResUplink, tb.Topo.StorageUplink.BW)
	rep := Report{Context: s}
	st.Prefill(&rep, storeBW, storeBytes)
	return rep.PrefillSec
}

func TestPrefillScales(t *testing.T) {
	tb := device.DefaultTestbed()
	t16 := prefill(tb, model.OPT30B, 16, 16384, 16.4e9, model.OPT30B.KVCacheBytes(16, 16384))
	t32 := prefill(tb, model.OPT30B, 16, 32768, 16.4e9, model.OPT30B.KVCacheBytes(16, 32768))
	if t32 <= t16 {
		t.Errorf("prefill not increasing with context: %v vs %v", t16, t32)
	}
	if t16 <= 0 {
		t.Error("prefill time not positive")
	}
}

func TestPrefillChunking(t *testing.T) {
	tb := device.DefaultTestbed()
	// Activations beyond GPU memory force weight reloads: prefill grows
	// superlinearly once chunked.
	small := prefill(tb, model.OPT175B, 1, 8192, 1, 0)
	big := prefill(tb, model.OPT175B, 16, 131072, 1, 0)
	if big < 16*small {
		t.Errorf("chunked long prefill %v not ≥ 16× short %v", big, small)
	}
}

func TestReportHelpers(t *testing.T) {
	r := Report{Batch: 4, StepSec: 2, PrefillSec: 10,
		Breakdown: map[string]float64{LabelLoadKV: 3, LabelCompute: 1}}
	if got := r.DecodeTokPerSec(); got != 2 {
		t.Errorf("throughput = %v, want 2", got)
	}
	if got := r.TotalSec(6); got != 20 {
		t.Errorf("total = %v, want 20", got)
	}
	if got := r.BreakdownShare(LabelLoadKV); got != 0.75 {
		t.Errorf("share = %v, want 0.75", got)
	}
	oom := Report{OOM: true}
	if oom.DecodeTokPerSec() != 0 || oom.TotalSec(10) != 0 {
		t.Error("OOM report produced nonzero metrics")
	}
}
