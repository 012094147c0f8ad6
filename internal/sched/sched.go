// Package sched implements the cooperative X-cache scheduler of §4.2: the
// first-order I/O cost model (T_GPU, T_SSD, T_PCI), the closed-form optimal
// X-cache ratio α, and the power-of-two snapping the runtime uses.
package sched

import (
	"fmt"
	"math"
)

// Inputs carries the bandwidths and sizes of the §4.2 cost model for one
// transformer block's decode attention.
type Inputs struct {
	SX     float64 // bytes of the X-cache for the full batch at context s
	Rho    float64 // S_KV / S_X ratio (2 for MHA, 2·KVHeads/Heads in general)
	BPCI   float64 // host interconnect bandwidth (bytes/s) for GDS X reads
	BSSD   float64 // aggregate NSP internal storage bandwidth (bytes/s)
	CGPU   float64 // GPU effective FLOP/s for the regeneration GEMMs
	Hidden int     // hidden dimension h (for the regeneration FLOP count)
}

// Validate reports invalid inputs.
func (in Inputs) Validate() error {
	if in.SX < 0 || in.Rho <= 0 || in.BPCI <= 0 || in.BSSD <= 0 || in.CGPU <= 0 || in.Hidden <= 0 {
		return fmt.Errorf("sched: invalid cost-model inputs %+v", in)
	}
	return nil
}

// TPCI returns the time to stream the α-fraction of the X-cache to the GPU.
func (in Inputs) TPCI(alpha float64) float64 { return alpha * in.SX / in.BPCI }

// TGPU returns the K/V regeneration time: the α-fraction of X (s×h FP16
// elements) is multiplied by Wk and Wv (2 GEMMs, 2 FLOPs per MAC per output
// element over h inputs → 2·h FLOPs per X element per matrix).
func (in Inputs) TGPU(alpha float64) float64 {
	elems := alpha * in.SX / 2 // FP16 elements
	// The compiler rewrites x*2 as x+x; float64(...) keeps it from fusing
	// that add with the product, which would round differently on arm64.
	flops := float64(elems*float64(in.Hidden)) * 2 * 2
	return flops / in.CGPU
}

// TSSD returns the internal storage read time: the α portion reads X bytes,
// the remainder reads the (ρ× larger) KV bytes.
func (in Inputs) TSSD(alpha float64) float64 {
	return (float64(alpha*in.SX) + float64((1-alpha)*in.Rho*in.SX)) / in.BSSD
}

// TEffective returns the pipelined step time max(T_GPU, T_SSD, T_PCI).
func (in Inputs) TEffective(alpha float64) float64 {
	return math.Max(in.TGPU(alpha), math.Max(in.TSSD(alpha), in.TPCI(alpha)))
}

// OptimalAlpha solves T_PCI(α) = T_SSD(α):
//
//	α·S_X/B_PCI = (α·S_X + (1-α)·ρ·S_X)/B_SSD
//	⇒ α = ρ·B_PCI / (B_SSD + (ρ-1)·B_PCI)
//
// which reduces to the paper's α = 2·B_PCI/(B_SSD + B_PCI) for ρ = 2 (MHA).
// When ρ ≤ 1 (GQA models whose KV is no larger than X), X-caching cannot
// reduce storage traffic and the scheduler returns 0.
func OptimalAlpha(rho, bSSD, bPCI float64) float64 {
	if rho <= 1 {
		return 0
	}
	a := rho * bPCI / (bSSD + float64((rho-1)*bPCI))
	return math.Min(a, 1)
}

// CandidateAlphas is the set of power-of-two ratios the runtime considers
// (the Fig. 13 sweep values).
var CandidateAlphas = []float64{0, 0.125, 0.25, 0.5, 0.75, 1}

// SnapAlpha returns the candidate ratio closest to a (ties snap downward,
// preferring less host-interconnect pressure).
func SnapAlpha(a float64) float64 {
	best, bestDist := CandidateAlphas[0], math.Abs(a-CandidateAlphas[0])
	for _, c := range CandidateAlphas[1:] {
		if d := math.Abs(a - c); d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

// Choose runs the full §4.2 procedure: closed-form optimum, snapped to a
// power of two, with a final verification sweep over the candidates using
// the cost model (the analytic optimum can be off a snap boundary; the
// cheapest candidate always wins).
func Choose(in Inputs) (alpha float64, err error) {
	if err := in.Validate(); err != nil {
		return 0, err
	}
	if in.Rho <= 1 {
		return 0, nil
	}
	best := SnapAlpha(OptimalAlpha(in.Rho, in.BSSD, in.BPCI))
	bestT := in.TEffective(best)
	for _, c := range CandidateAlphas {
		if t := in.TEffective(c); t < bestT {
			best, bestT = c, t
		}
	}
	return best, nil
}
