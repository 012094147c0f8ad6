package accel

import "testing"

// §7.2: scaling the d_group=5 softmax path 4× via DSP parallelization needs
// over 2,000 DSPs — beyond the KU15P.
func TestPCIe5DSPDemandExceedsKU15P(t *testing.T) {
	r := DefaultResourceModel(128)
	dsps, err := DSPsForThroughputScale(r, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if dsps <= 2000 {
		t.Errorf("4x d_group=5 needs %.0f DSPs, paper says over 2,000", dsps)
	}
	if dsps <= KU15PDSPs {
		t.Error("demand unexpectedly fits the KU15P")
	}
	// The baseline configuration itself fits.
	base, _ := DSPsForThroughputScale(r, 5, 1)
	if base > KU15PDSPs {
		t.Error("baseline d_group=5 does not fit")
	}
}

func TestDSPScaleValidation(t *testing.T) {
	r := DefaultResourceModel(128)
	if _, err := DSPsForThroughputScale(r, 1, 0); err == nil {
		t.Error("zero scale accepted")
	}
}

// Dedicated exponential units raise the softmax throughput without touching
// the GEMV or memory paths.
func TestDedicatedExpUnits(t *testing.T) {
	base := DefaultCycleModel(5, 128)
	fast := base.WithDedicatedExpUnits()
	_, _, smBase, _ := base.UnitCycles()
	_, _, smFast, _ := fast.UnitCycles()
	if smFast*4 != smBase {
		t.Errorf("dedicated exp units: %v vs %v cycles, want 4x reduction", smFast, smBase)
	}
	mem, qk, _, sv := base.UnitCycles()
	memF, qkF, _, svF := fast.UnitCycles()
	if mem != memF || qk != qkF || sv != svF {
		t.Error("dedicated exp units perturbed other pipeline stages")
	}
}

func TestDualClockDomains(t *testing.T) {
	base := DefaultCycleModel(5, 128)
	fast, err := base.WithDualClockDomains(450e6)
	if err != nil {
		t.Fatal(err)
	}
	_, _, smBase, _ := base.UnitCycles()
	_, _, smFast, _ := fast.UnitCycles()
	if smFast >= smBase {
		t.Error("dual clock did not shrink the softmax stage")
	}
	if _, err := base.WithDualClockDomains(100e6); err == nil {
		t.Error("slower softmax domain accepted")
	}
}

// The current SmartSSD saturates its PCIe 3.0 internal path; a naive port
// to a PCIe 5.0-class path would not keep up without the §7.2 refinements,
// while the refined future CSD does.
func TestFutureCSDSaturation(t *testing.T) {
	const s = 32 * 1024
	today := SmartSSDToday()
	ok, err := today.SaturatesInterface(5, 128, s)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("current SmartSSD fails to saturate its PCIe 3.0 internal path")
	}

	// Naive port: same kernel, 4× faster flash, old DRAM — falls short.
	naive := today
	naive.InternalBW = 13.6e9
	ok, err = naive.SaturatesInterface(5, 128, s)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("naive PCIe 5.0 port unexpectedly saturates 13.6 GB/s")
	}

	future := PCIe5CSD()
	ok, err = future.SaturatesInterface(5, 128, s)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		r, _ := future.KernelRate(5, 128, s)
		t.Errorf("refined future CSD reaches only %.1f GB/s of its %.1f GB/s path",
			r/1e9, future.InternalBW/1e9)
	}
}

// The future CSD trades capacity for bandwidth at constant price — the
// "more balanced design" of §7.2.
func TestFutureCSDBalancedTradeoff(t *testing.T) {
	today, future := SmartSSDToday(), PCIe5CSD()
	if future.PriceUSD != today.PriceUSD {
		t.Error("future CSD not at constant cost")
	}
	if future.CapBytes >= today.CapBytes {
		t.Error("future CSD did not give up capacity")
	}
	if future.InternalBW <= today.InternalBW {
		t.Error("future CSD did not gain internal bandwidth")
	}
}
