package experiments

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/repcache"
)

// ExtCSD regenerates the §7.2 future-CSD analysis: whether the attention
// kernel keeps up with PCIe 5.0-class internal storage, the DSP demand of
// naive scaling, and the refined balanced design.
func (r Runner) ExtCSD() Table {
	t := Table{
		ID:      "ext-csd",
		Title:   "Future CSD designs (§7.2), d_group=5 kernel at s=32K",
		Headers: []string{"device", "internal BW (GB/s)", "kernel rate (GB/s)", "saturates?"},
		Notes: []string{
			"paper: 4x DSP parallelization would need over 2,000 DSPs (KU15P has 1,968)",
			"paper: dedicated exponential units and dual clock domains restore viability",
		},
	}
	const s = 32 * 1024
	naive := accel.SmartSSDToday()
	naive.Name = "naive PCIe 5.0 port"
	naive.InternalBW = 13.6e9
	for _, dev := range []accel.FutureCSD{accel.SmartSSDToday(), naive, accel.PCIe5CSD()} {
		rate, err := dev.KernelRate(5, 128, s)
		if err != nil {
			t.Notes = append(t.Notes, "error: "+err.Error())
			continue
		}
		ok, err := dev.SaturatesInterface(5, 128, s)
		if err != nil {
			t.Notes = append(t.Notes, "error: "+err.Error())
			continue
		}
		sat := "no"
		if ok {
			sat = "yes"
		}
		t.Rows = append(t.Rows, []string{dev.Name, f2(dev.InternalBW / 1e9), f2(rate / 1e9), sat})
	}
	rm := accel.DefaultResourceModel(128)
	if dsps, err := accel.DSPsForThroughputScale(rm, 5, 4); err == nil {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"DSP demand for 4x d_group=5 via parallelization: %.0f of %d available", dsps, accel.KU15PDSPs))
	}
	return t
}

// ExtCXL regenerates the §7.3 analysis: the spill-interval penalty of the
// PCIe platform's explicit DMA orchestration disappears under CXL.mem.
func (r Runner) ExtCXL() Table {
	t := Table{
		ID:      "ext-cxl",
		Title:   "PCIe (XRT DMA) vs CXL.mem writeback orchestration, OPT-66B, 8 SmartSSDs, α=50%",
		Headers: []string{"platform", "c=16", "c=32", "c=64", "c=64 vs c=16"},
		Notes: []string{
			"paper: throughput drops >30% scaling c from 4 KiB (c=16) to 16 KiB (c=64) on PCIe",
			"paper: CXL.mem eliminates explicit copies and DMA management",
		},
	}
	run := func(cxl bool, c int) float64 {
		tb := r.TB
		tb.Topo.CXL = cxl
		cfg := engine.Config{Testbed: tb, Devices: 8, Alpha: 0.5, SpillInterval: c}
		return must(repcache.Run(engine.SysHILOS, cfg, request(model.OPT66B, 16, 32768))).DecodeTokPerSec()
	}
	var points []func() group
	for _, p := range []struct {
		name string
		cxl  bool
	}{{"PCIe + XRT", false}, {"CXL.mem", true}} {
		points = append(points, func() group {
			t16, t32, t64 := run(p.cxl, 16), run(p.cxl, 32), run(p.cxl, 64)
			return group{rows: [][]string{{
				p.name, f3(t16), f3(t32), f3(t64), pct(t64/t16 - 1),
			}}}
		})
	}
	t.addPoints(points)
	return t
}
