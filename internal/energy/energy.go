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

// StorageKind distinguishes the storage power model of a configuration.
type StorageKind int

// Storage kinds.
const (
	PlainSSDs StorageKind = iota // PM9A3 datasheet power (§6.6)
	SmartSSDs                    // SSD power + accelerator on-chip power
	NoSSD                        // vLLM-style all-GPU systems
)

// Config parameterizes the energy integration for one system.
type Config struct {
	Storage     StorageKind
	Devices     int
	AccelPowerW float64 // per-device accelerator power (Table 3), SmartSSDs only
	GPUCount    int     // defaults to 1
}

// PerToken integrates component power over one decoding step of the report
// and divides by the effective batch, yielding joules per generated token.
func PerToken(tb device.Testbed, rep pipeline.Report, cfg Config) (Breakdown, error) {
	if rep.OOM || rep.StepSec <= 0 || rep.Batch <= 0 {
		return Breakdown{}, fmt.Errorf("energy: report has no successful decode step")
	}
	if cfg.GPUCount <= 0 {
		cfg.GPUCount = 1
	}
	step := rep.StepSec

	cpuBusy := clamp(rep.ResourceBusy[pipeline.ResCPU], 0, step)
	gpuBusy := clamp(rep.ResourceBusy[pipeline.ResGPU], 0, step)

	var b Breakdown
	b.CPU = float64(cpuBusy*tb.CPU.BusyPowerW) + float64((step-cpuBusy)*tb.CPU.IdlePowerW)
	b.GPU = float64(cfg.GPUCount) * (float64(gpuBusy*tb.GPU.BusyPowerW) + float64((step-gpuBusy)*tb.GPU.IdlePowerW))
	b.DRAM = tb.DRAM.PowerW * step

	switch cfg.Storage {
	case PlainSSDs:
		b.SSD = float64(cfg.Devices) * tb.PlainSSD.PowerW * step
	case SmartSSDs:
		b.SSD = float64(cfg.Devices) * (tb.SmartSSD.SSD.PowerW + cfg.AccelPowerW) * step
	case NoSSD:
		b.SSD = 0
	default:
		return Breakdown{}, fmt.Errorf("energy: unknown storage kind %d", cfg.Storage)
	}

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
