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

// A preempting close-at-admission Run allocates in proportion to its live
// work, not its evictions: evicted slots are recycled, and evict reuses one
// result buffer. The trace
// overloads two pipelines with offline work, so each urgent batch evicts
// the queued offline batches ahead of it.
func TestPreemptRunAllocsBounded(t *testing.T) {
	cfg := Config{
		Model: model.OPT30B,
		Fleet: []Pipeline{
			{Name: "a", Run: constEngine(3), USDPerHour: 2},
			{Name: "b", Run: constEngine(4), USDPerHour: 1},
		},
		Policy:    LeastLoaded,
		Admission: Admission{MaxBatch: 4, MaxWaitSec: 2, Preemption: true},
	}
	reqs := digestTrace(7, 1000)
	s, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(cfg, reqs); err != nil {
			t.Fatal(err)
		}
	})
	// Measured on amd64 with Go 1.24: 25,235 evictions, 547 assignments,
	// 2,458 allocations per Run (about four per assignment: the batch's
	// three slices and its slot). One fresh slot per placement puts it
	// above 25k.
	if s.PreemptedBatches < 500 {
		t.Fatalf("the trace evicts %d batches, want at least 500", s.PreemptedBatches)
	}
	if allocs > float64(s.PreemptedBatches)/4 {
		t.Errorf("%v allocations per Run for %d evicted batches and %d assignments, want at most a quarter of the evictions",
			allocs, s.PreemptedBatches, len(s.Assignments))
	}
}
