package core

import (
	"testing"

	"repro/internal/device"
	"repro/internal/model"
)

// §7.3: CXL.mem removes the XRT DMA orchestration, so throughput no longer
// degrades with the spill interval and always at least matches the PCIe
// platform.
func TestCXLRemovesSpillPenalty(t *testing.T) {
	run := func(cxl bool, c int) float64 {
		tb := device.DefaultTestbed()
		tb.Topo.CXL = cxl
		return Run(tb, req(model.OPT66B, 16, 32768), Options{
			Devices: 8, XCache: true, DelayedWriteback: true,
			Alpha: 0.5, SpillInterval: c,
		}).DecodeTokPerSec()
	}
	// PCIe loses throughput from c=16 to c=64; CXL must not.
	pciLoss := 1 - run(false, 64)/run(false, 16)
	cxlLoss := 1 - run(true, 64)/run(true, 16)
	if pciLoss < 0.05 {
		t.Errorf("PCIe c=16→64 loss only %.1f%%; penalty model broken", pciLoss*100)
	}
	if cxlLoss > 0.01 {
		t.Errorf("CXL c=16→64 loss %.1f%%, want ≈ 0", cxlLoss*100)
	}
	// CXL is at least as fast at every interval.
	for _, c := range []int{2, 16, 64} {
		if run(true, c) < run(false, c) {
			t.Errorf("c=%d: CXL slower than PCIe", c)
		}
	}
}

// CXL only affects the writeback orchestration: with the naive commit path
// (no delayed writeback) a CXL topology must leave results unchanged.
func TestCXLOnlyAffectsWritebackPath(t *testing.T) {
	tb := device.DefaultTestbed()
	r := req(model.OPT30B, 16, 16384)
	plain := Run(tb, r, Options{Devices: 8})
	tb.Topo.CXL = true
	cxl := Run(tb, r, Options{Devices: 8})
	if plain.StepSec != cxl.StepSec {
		t.Errorf("CXL changed the naive path: %v vs %v", plain.StepSec, cxl.StepSec)
	}
}
