package accel

import "fmt"

// KU15P capacities (AMD Kintex UltraScale+ KU15P, the SmartSSD FPGA).
const (
	KU15PLUTs  = 522720
	KU15PFFs   = 1045440
	KU15PBRAMs = 984
	KU15PURAMs = 128
	KU15PDSPs  = 1968
)

// Utilization is an FPGA resource utilization report in percent of KU15P
// capacity, plus the achieved performance and on-chip power — one row of
// Table 3.
type Utilization struct {
	DGroup     int
	LUTPct     float64
	FFPct      float64
	BRAMPct    float64
	URAMPct    float64
	DSPPct     float64
	PeakGFLOPS float64
	PowerW     float64
	ClockMHz   float64
}

// ResourceModel estimates KU15P utilization as a function of d_group. The
// model decomposes the design into a fixed platform/shell portion plus
// per-query-lane increments:
//
//   - LUTs: the GEMV datapath and transposition muxing grow with lanes
//     (§6.2: "GEMV units primarily utilize LUTs to manage complex memory
//     transactions such as transposition").
//   - DSPs: exponential units dominate (§6.2: "the softmax unit utilizes a
//     large fraction of DSP blocks"), growing with lanes.
//   - BRAM: per-lane score/output buffers on top of shared K/V/Kᵀ buffers;
//     the shared buffers dominate, so growth is shallow.
//   - URAM: fixed staging buffers, independent of d_group.
//   - Power: static + PCIe transceivers plus per-lane dynamic power.
//
// Coefficients are least-squares fits to the three measured rows of
// Table 3 and validated against them in tests.
type ResourceModel struct {
	LUTBase, LUTPerLane       float64
	FFBase, FFPerLane         float64
	BRAMBase, BRAMPerLane     float64
	URAMFixed                 float64
	DSPBase, DSPPerLane       float64
	PowerBaseW, PowerPerLaneW float64
	ClockMHz                  float64
	HeadDim                   int
}

// DefaultResourceModel returns the Table 3 fit for the given head dimension.
func DefaultResourceModel(headDim int) ResourceModel {
	return ResourceModel{
		LUTBase: 31.32, LUTPerLane: 6.88,
		FFBase: 24.01, FFPerLane: 4.24,
		BRAMBase: 49.37, BRAMPerLane: 2.07,
		URAMFixed: 9.38,
		DSPBase:   5.40, DSPPerLane: 4.19,
		PowerBaseW: 10.08, PowerPerLaneW: 1.25,
		ClockMHz: 296.05,
		HeadDim:  headDim,
	}
}

// Estimate returns the utilization row for a given d_group. It returns an
// error if the design does not fit the KU15P (any resource > 100%), the
// condition that caps d_group on the SmartSSD platform (§7.2).
func (r ResourceModel) Estimate(dGroup int) (Utilization, error) {
	if dGroup < 1 {
		return Utilization{}, fmt.Errorf("accel: d_group must be ≥ 1, got %d", dGroup)
	}
	g := float64(dGroup)
	u := Utilization{
		DGroup:   dGroup,
		LUTPct:   r.LUTBase + float64(r.LUTPerLane*g),
		FFPct:    r.FFBase + float64(r.FFPerLane*g),
		BRAMPct:  r.BRAMBase + float64(r.BRAMPerLane*g),
		URAMPct:  r.URAMFixed,
		DSPPct:   r.DSPBase + float64(r.DSPPerLane*g),
		PowerW:   r.PowerBaseW + float64(r.PowerPerLaneW*g),
		ClockMHz: r.ClockMHz,
	}
	cm := DefaultCycleModel(dGroup, r.HeadDim)
	u.PeakGFLOPS = cm.SustainedGFLOPS()
	for _, pct := range []float64{u.LUTPct, u.FFPct, u.BRAMPct, u.URAMPct, u.DSPPct} {
		if pct > 100 {
			return u, fmt.Errorf("accel: d_group %d does not fit KU15P (a resource exceeds 100%%)", dGroup)
		}
	}
	return u, nil
}

// MaxDGroup returns the largest d_group that fits the KU15P.
func (r ResourceModel) MaxDGroup() int {
	g := 1
	for {
		if _, err := r.Estimate(g + 1); err != nil {
			return g
		}
		g++
		if g > 128 {
			return g // defensive bound; never reached with sane fits
		}
	}
}

// Table3 returns the three configurations reported in the paper.
func Table3(headDim int) ([]Utilization, error) {
	r := DefaultResourceModel(headDim)
	var rows []Utilization
	for _, g := range []int{1, 4, 5} {
		u, err := r.Estimate(g)
		if err != nil {
			return nil, err
		}
		rows = append(rows, u)
	}
	return rows, nil
}
