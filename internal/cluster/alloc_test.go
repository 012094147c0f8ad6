//go:build !race

package cluster

import (
	"testing"

	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// Planning on a warm dispatcher reads every report by index and allocates
// nothing, for every policy, idle-only or not, at a full size and at sizes
// that leave a tail pass.
func TestPlanDoesNotAllocate(t *testing.T) {
	shrink := func(req pipeline.Request) pipeline.Report {
		return pipeline.Report{Batch: min(req.Batch, 3), PrefillSec: 2, StepSec: 0.01}
	}
	fleet := []Pipeline{
		{Name: "a0", Run: shrink, EngineID: "a", USDPerHour: 2},
		{Name: "a1", Run: shrink, EngineID: "a", USDPerHour: 2},
		{Name: "b", Run: constEngine(4), USDPerHour: 1, Lossy: true},
	}
	for _, pol := range Policies() {
		d, err := newDispatcher(model.OPT30B, fleet, pol)
		if err != nil {
			t.Fatal(err)
		}
		tab := d.table(workload.Medium)
		d.freeAt[1] = 5 // one busy pipeline, so idle-only skips it
		for _, idleOnly := range []bool{false, true} {
			for _, n := range []int{3, 4, 8} {
				d.plan(tab, n, 1, idleOnly, 1) // warm: simulate every size once
				allocs := testing.AllocsPerRun(100, func() {
					if pl, _, _ := d.plan(tab, n, 1, idleOnly, 1); pl.p < 0 {
						t.Fatalf("%s: no placement for %d jobs", pol, n)
					}
				})
				if allocs != 0 {
					t.Errorf("%s idleOnly=%t n=%d: plan allocates %v times per call, want 0", pol, idleOnly, n, allocs)
				}
			}
		}
	}
}
