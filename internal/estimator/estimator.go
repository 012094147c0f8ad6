// Package estimator implements the §5.1 performance estimator: a simple
// closed-form prediction of accelerator kernel time from HLS-reported cycle
// counts and clock frequency, validated against the detailed cycle model
// (our stand-in for measured hardware) via Pearson correlation. The paper
// reports r = 0.93 across sequence lengths 4K–32K for the three kernels of
// Table 3.
package estimator

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/stats"
)

// Estimate predicts the kernel execution time for one attention pass of
// dGroup queries over s cached tokens, the way the §5.1 estimator does:
// from HLS-reported per-block cycle counts and the nominal clock. What HLS
// reports captures the pipeline structure (unit cycle counts, fill) but not
// the runtime: the OpenCL/XRT dispatch overhead per block is invisible to
// it, and the DRAM controller efficiency is taken at its datasheet-style
// nominal value rather than the measured one.
func Estimate(dGroup, headDim, s int) float64 {
	hls := accel.CycleModel{
		ClockHz:        300e6, // nominal target clock
		MACLanes:       128,
		ExpPerLane:     2,
		DGroup:         dGroup,
		HeadDim:        headDim,
		DRAMBW:         19.2e9,
		DRAMEff:        0.70, // nominal assumption, vs 0.62 measured
		OverheadCycles: 0,    // runtime dispatch is invisible to HLS
	}
	return hls.KernelTime(s)
}

// Point is one (kernel, sequence length) validation sample.
type Point struct {
	DGroup    int
	Seq       int
	Estimated float64 // estimator seconds
	Measured  float64 // cycle-model seconds (hardware stand-in)
}

// Sweep evaluates estimator and cycle model across the paper's validation
// grid: the Table 3 kernels × sequence lengths 4K..32K.
func Sweep() []Point {
	var pts []Point
	for _, dg := range []int{1, 4, 5} {
		for s := 4096; s <= 32768; s *= 2 {
			cm := accel.DefaultCycleModel(dg, 128)
			pts = append(pts, Point{
				DGroup:    dg,
				Seq:       s,
				Estimated: Estimate(dg, 128, s),
				Measured:  cm.KernelTime(s),
			})
		}
	}
	return pts
}

// Correlation returns the Pearson correlation between estimated and
// measured kernel throughputs over the validation sweep. Correlating
// throughput (rather than raw time, which is trivially dominated by the
// linear dependence on s) exposes the estimator's model error the way the
// paper's validation does.
func Correlation(pts []Point) (float64, error) {
	if len(pts) == 0 {
		return 0, fmt.Errorf("estimator: empty sweep")
	}
	est := make([]float64, len(pts))
	meas := make([]float64, len(pts))
	for i, p := range pts {
		if p.Estimated <= 0 || p.Measured <= 0 {
			return 0, fmt.Errorf("estimator: non-positive time at point %d", i)
		}
		kvBytes := float64(2*float64(p.Seq)*128) * 2
		est[i] = kvBytes / p.Estimated
		meas[i] = kvBytes / p.Measured
	}
	return stats.Pearson(est, meas)
}
