package accel

import "fmt"

// This file models the §7.2 discussion: what current CSD platforms lack and
// which architectural refinements would let near-storage attention keep up
// with PCIe 5.0-class storage.

// DSPsForThroughputScale returns the DSP count required to scale the softmax
// path of a d_group configuration by the given throughput factor via DSP
// parallelization alone (§7.2: "to match a 4× throughput increase from the
// assumed PCIe 5.0 interface via DSP parallelization, the design would
// require over 2,000 DSPs").
func DSPsForThroughputScale(r ResourceModel, dGroup int, scale float64) (float64, error) {
	if scale <= 0 {
		return 0, fmt.Errorf("accel: non-positive scale %v", scale)
	}
	u, err := r.Estimate(dGroup)
	if err != nil {
		// The baseline configuration itself may not fit; report demand
		// anyway from the unclamped model.
		u = Utilization{DSPPct: r.DSPBase + float64(r.DSPPerLane*float64(dGroup))}
	}
	baseDSPs := u.DSPPct / 100 * KU15PDSPs
	return baseDSPs * scale, nil
}

// WithDedicatedExpUnits returns a cycle model in which the exponential
// function is a hardened unit rather than a DSP composition (§7.2's first
// proposal: "dedicated units for exponential functions... would
// significantly enhance the viability of CSDs for deep learning"). The
// hardened unit sustains one exponential per cycle per lane pair, i.e. 4×
// the HLS implementation's throughput at a fraction of the DSP cost.
func (m CycleModel) WithDedicatedExpUnits() CycleModel {
	m.ExpPerLane *= 4
	return m
}

// WithDualClockDomains returns a cycle model where the compute-intensive
// softmax logic runs in a faster clock domain while memory-bound GEMV logic
// stays at the base clock (§7.2's second proposal). Because the sim
// expresses unit times in base-clock cycles, the softmax cycle count shrinks
// by the domain ratio.
func (m CycleModel) WithDualClockDomains(softmaxClockHz float64) (CycleModel, error) {
	if softmaxClockHz <= m.ClockHz {
		return m, fmt.Errorf("accel: softmax domain %v Hz not above base %v Hz", softmaxClockHz, m.ClockHz)
	}
	m.ExpPerLane *= softmaxClockHz / m.ClockHz
	return m, nil
}

// FutureCSD describes a §7.2 "more balanced" computational storage device:
// trading unneeded capacity for internal bandwidth and compute.
type FutureCSD struct {
	Name           string
	CapBytes       int64
	InternalBW     float64 // flash→accelerator bytes/s
	DRAMBW         float64 // accelerator off-chip memory bytes/s
	HostLinkBW     float64
	PriceUSD       float64
	DedicatedExp   bool
	SoftmaxClockHz float64 // 0 = single clock domain
	// DispatchOverheadCycles replaces the OpenCL/XRT per-block dispatch
	// cost; a streamlined command path (hardwired queues, as in the §7.1
	// ISP projection) is part of a balanced next-generation design.
	DispatchOverheadCycles float64
}

// SmartSSDToday returns the current-generation device for comparison.
func SmartSSDToday() FutureCSD {
	return FutureCSD{
		Name:                   "SmartSSD (PCIe 3.0)",
		CapBytes:               3840e9,
		InternalBW:             3.4e9,
		DRAMBW:                 19.2e9,
		HostLinkBW:             3.4e9,
		PriceUSD:               2400,
		DispatchOverheadCycles: 1200, // OpenCL/XRT round trips
	}
}

// PCIe5CSD returns a next-generation device with a 4× internal interface
// (§7.2's premise) and the two §7.2 refinements enabled.
func PCIe5CSD() FutureCSD {
	return FutureCSD{
		Name:                   "CSD (PCIe 5.0, dedicated exp, dual clock)",
		CapBytes:               1920e9, // half the capacity: "less capacity, more internal bandwidth"
		InternalBW:             13.6e9, // 4× the PCIe 3.0 path
		DRAMBW:                 68e9,   // LPDDR5X-class
		HostLinkBW:             13.6e9,
		PriceUSD:               2400, // capacity↓ funds bandwidth↑ at constant cost
		DedicatedExp:           true,
		SoftmaxClockHz:         450e6,
		DispatchOverheadCycles: 200, // streamlined command path
	}
}

// KernelRate returns the device's end-to-end attention rate (KV bytes/s) at
// sequence length s for a d_group configuration: the kernel pipeline fed
// from this device's DRAM, bounded by its internal flash path.
func (c FutureCSD) KernelRate(dGroup, headDim, s int) (float64, error) {
	m := DefaultCycleModel(dGroup, headDim)
	m.DRAMBW = c.DRAMBW
	m.OverheadCycles = c.DispatchOverheadCycles
	if c.DedicatedExp {
		m = m.WithDedicatedExpUnits()
	}
	if c.SoftmaxClockHz > 0 {
		var err error
		m, err = m.WithDualClockDomains(c.SoftmaxClockHz)
		if err != nil {
			return 0, err
		}
	}
	return m.PipelinedRate(s, c.InternalBW), nil
}

// SaturatesInterface reports whether the kernel keeps up with the device's
// internal storage path (the §7.2 viability criterion).
func (c FutureCSD) SaturatesInterface(dGroup, headDim, s int) (bool, error) {
	r, err := c.KernelRate(dGroup, headDim, s)
	if err != nil {
		return false, err
	}
	return r >= c.InternalBW*0.999, nil
}
