// Package energy implements the Fig. 17(a) energy model: per-component
// energy (CPU, DRAM, GPU, SSD) integrated over the simulated decoding step,
// using busy/idle power states for the compute devices and constant power
// for memory and storage — mirroring the paper's NVML/RAPL/expansion-board
// measurement methodology (§6.6).
package energy

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/pipeline"
)

// Breakdown is the per-token energy split in joules.
type Breakdown struct {
	CPU  float64
	DRAM float64
	GPU  float64
	SSD  float64
}

// Total returns the summed energy per token.
func (b Breakdown) Total() float64 { return b.CPU + b.DRAM + b.GPU + b.SSD }

// PerToken integrates the power of hw over one decoding step of the report
// and divides by the effective batch, yielding joules per generated token.
// The testbed supplies each component's power: every host draws its CPU and
// DRAM, every GPU hw.GPU's, every SSD its own, and a SmartSSD's accelerator
// only when hw.Accels is set.
func PerToken(tb device.Testbed, rep pipeline.Report, hw device.Hardware) (Breakdown, error) {
	if rep.OOM || rep.StepSec <= 0 || rep.Batch <= 0 {
		return Breakdown{}, fmt.Errorf("energy: report has no successful decode step")
	}
	step := rep.StepSec

	cpuBusy := clamp(rep.ResourceBusy[pipeline.ResCPU], 0, step)
	gpuBusy := clamp(rep.ResourceBusy[pipeline.ResGPU], 0, step)
	hosts := float64(hw.Hosts)

	var b Breakdown
	b.CPU = hosts * (float64(cpuBusy*tb.CPU.BusyPowerW) + float64((step-cpuBusy)*tb.CPU.IdlePowerW))
	b.GPU = float64(hw.GPUs) * (float64(gpuBusy*hw.GPU.BusyPowerW) + float64((step-gpuBusy)*hw.GPU.IdlePowerW))
	b.DRAM = hosts * tb.DRAM.PowerW * step

	smartW := tb.SmartSSD.SSD.PowerW
	if hw.Accels {
		smartW += tb.SmartSSD.AccelPowerW
	}
	ssdW := float64(float64(hw.PlainSSDs) * tb.PlainSSD.PowerW)
	ssdW += float64(float64(hw.SmartSSDs) * smartW)
	b.SSD = ssdW * step

	inv := 1 / float64(rep.Batch)
	b.CPU *= inv
	b.DRAM *= inv
	b.GPU *= inv
	b.SSD *= inv
	return b, nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
