//go:build !race

package engine

import (
	"testing"

	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/pipeline"
)

// An untraced run of each task-graph engine allocates a fixed handful of
// times, whatever the layer count. The step lives on the stack; one that
// escapes to the heap copies the whole device.Testbed into a new allocation
// on every run, and that single allocation fails this test. hilos-ans takes
// the synchronous-commit path, which once built a dependency slice per layer.
// Both weight placements are covered: OPT-30B keeps its weights in DRAM,
// OPT-175B streams them from storage.
func TestRunAllocsBounded(t *testing.T) {
	for _, c := range []struct {
		sys System
		m   model.Config
		max float64
	}{
		{SysHILOS, model.OPT30B, 19},
		{SysHILOS, model.OPT175B, 19},
		{SysHILOSANS, model.OPT30B, 26},
		{SysHILOSANS, model.OPT175B, 27},
		{SysFlexSSD, model.OPT30B, 23},
		{SysFlexSSD, model.OPT175B, 24},
		{SysInstInfer, model.OPT30B, 24},
		{SysInstInfer, model.OPT175B, 25},
	} {
		eng, err := New(c.sys, Config{Testbed: device.DefaultTestbed()})
		if err != nil {
			t.Fatal(err)
		}
		req := pipeline.Request{Model: c.m, Batch: 8, Context: 16384, OutputLen: 64, NoTrace: true}
		eng.Run(req) // warm the simulator's arena pool
		if got := testing.AllocsPerRun(100, func() { eng.Run(req) }); got > c.max {
			t.Errorf("%s %s: %v allocations per run, want at most %v", c.sys, c.m.Name, got, c.max)
		}
	}
}
