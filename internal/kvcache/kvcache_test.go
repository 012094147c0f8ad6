package kvcache

import (
	"testing"

	"repro/internal/device"
	"repro/internal/model"
)

func mustPlan(t *testing.T, m model.Config, bs, s, dev int, alpha float64) Placement {
	t.Helper()
	p, err := Plan(m, bs, s, dev, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlanBasics(t *testing.T) {
	p := mustPlan(t, model.OPT175B, 16, 128*1024, 16, 0.5)
	if p.TotalGroups != 16*96 {
		t.Errorf("groups = %d, want 1536", p.TotalGroups)
	}
	if p.XGroups != 768 || p.KVGroups != 768 {
		t.Errorf("alpha split = %d/%d, want 768/768", p.XGroups, p.KVGroups)
	}
	// α=0.5 on MHA: X bytes must be half the KV bytes for the same groups.
	if p.XBytesTotal*2 != p.KVBytesTotal {
		t.Errorf("X bytes %d not half of KV bytes %d for MHA α=0.5", p.XBytesTotal, p.KVBytesTotal)
	}
}

func TestAlphaZeroAndOne(t *testing.T) {
	p0 := mustPlan(t, model.OPT66B, 4, 32768, 8, 0)
	if p0.XGroups != 0 || p0.XBytesTotal != 0 {
		t.Error("alpha=0 still allocates X-cache")
	}
	p1 := mustPlan(t, model.OPT66B, 4, 32768, 8, 1)
	if p1.KVGroups != 0 || p1.KVBytesTotal != 0 {
		t.Error("alpha=1 still allocates KV cache")
	}
	// X-cache totals are half KV totals for MHA (the endurance benefit).
	if p1.XBytesTotal*2 != p0.KVBytesTotal {
		t.Errorf("full X %d vs full KV %d: want 1:2", p1.XBytesTotal, p0.KVBytesTotal)
	}
}

// Fig. 2(a) anchor: 175B bs=16 s=128K pure-KV placement is ≈ 10 TB and fits
// 16 SmartSSDs but not 4.
func TestCapacityFeasibility(t *testing.T) {
	tb := device.DefaultTestbed()
	fits := func(p Placement, devCap int64) bool {
		return p.BytesPerDev <= devCap && p.TotalBytes() <= devCap*int64(p.Devices)
	}
	p := mustPlan(t, model.OPT175B, 16, 128*1024, 16, 0)
	if !fits(p, tb.SmartSSD.SSD.CapBytes) {
		t.Error("175B/128K/bs16 should fit 16 SmartSSDs")
	}
	// 4 SmartSSDs (15.4 TB) hold the 128K cache but not 256K (~20 TB).
	p4 := mustPlan(t, model.OPT175B, 16, 256*1024, 4, 0)
	if fits(p4, tb.SmartSSD.SSD.CapBytes) {
		t.Error("175B/256K/bs16 should not fit 4 SmartSSDs")
	}
}

// §7.2: per-device footprint stays below 600 GB under peak workloads,
// leaving the 3.84 TB capacity underused.
func TestPerDeviceFootprintMatchesSec72(t *testing.T) {
	p := mustPlan(t, model.OPT175B, 16, 128*1024, 16, 0.5)
	gb := float64(p.BytesPerDev) / 1e9
	if gb > 700 {
		t.Errorf("per-device footprint %.0f GB, paper reports < 600 GB", gb)
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := Plan(model.OPT30B, 0, 1024, 4, 0); err == nil {
		t.Error("batch=0 accepted")
	}
	if _, err := Plan(model.OPT30B, 1, 1024, 4, 1.5); err == nil {
		t.Error("alpha=1.5 accepted")
	}
	bad := model.OPT30B
	bad.DGroup = 3
	if _, err := Plan(bad, 1, 1024, 4, 0); err == nil {
		t.Error("invalid model accepted")
	}
}
