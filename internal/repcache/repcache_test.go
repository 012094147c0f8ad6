package repcache

import (
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/pipeline"
)

func req() pipeline.Request {
	return pipeline.Request{Model: model.OPT30B, Batch: 4, Context: 8192, OutputLen: 64}
}

// The cache must return the uncached engine's exact result and collapse
// repeated and concurrent lookups of one point into a single entry.
func TestCoreRunMatchesAndDedupes(t *testing.T) {
	Reset()
	tb := device.DefaultTestbed()
	opt := core.DefaultOptions(8)
	direct := core.Run(tb, req(), opt)

	var wg sync.WaitGroup
	reps := make([]pipeline.Report, 16)
	for i := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i] = CoreRun(tb, req(), opt)
		}()
	}
	wg.Wait()
	for i, rep := range reps {
		if rep.StepSec != direct.StepSec || rep.PrefillSec != direct.PrefillSec || rep.Batch != direct.Batch {
			t.Fatalf("cached report %d differs from direct run: %+v vs %+v", i, rep, direct)
		}
	}
	if Len() != 1 {
		t.Fatalf("16 identical lookups created %d cache entries, want 1", Len())
	}

	// A different option set is a different point.
	CoreRun(tb, req(), core.DefaultOptions(16))
	if Len() != 2 {
		t.Fatalf("distinct options shared an entry: Len = %d", Len())
	}
}

func TestFlexAndVLLMKeysDistinct(t *testing.T) {
	Reset()
	tb := device.DefaultTestbed()
	a := FlexRun(tb, baseline.FlexSSD(tb), req())
	b := FlexRun(tb, baseline.FlexDRAM(tb), req())
	if a.System == b.System {
		t.Fatalf("different variants collided: %q", a.System)
	}
	FlexRun(tb, baseline.FlexSSD(tb), req()) // hit
	VLLMRun(tb, baseline.DefaultVLLM(), req())
	if Len() != 3 {
		t.Fatalf("cache has %d entries, want 3", Len())
	}
	if got := VLLMRun(tb, baseline.DefaultVLLM(), req()); got.System == "" {
		t.Fatal("vLLM report missing system name")
	}
}

// A Group memoizes within itself only: equal keys in two Groups compute
// twice, and no Group entry enters the process cache, so a caller that
// drops its Group drops its reports with it.
func TestGroupIsPrivate(t *testing.T) {
	Reset()
	calls := 0
	compute := func() pipeline.Report {
		calls++
		return pipeline.Report{Batch: calls}
	}
	a, b := NewGroup(), NewGroup()
	if got := a.Do(1, compute); got.Batch != 1 {
		t.Fatalf("first compute returned batch %d, want 1", got.Batch)
	}
	if got := a.Do(1, compute); got.Batch != 1 || calls != 1 {
		t.Fatalf("repeat lookup: batch %d after %d computes, want the first report and 1 compute", got.Batch, calls)
	}
	if got := b.Do(1, compute); got.Batch != 2 {
		t.Fatalf("second group shared the first group's entry: batch %d", got.Batch)
	}
	if Len() != 0 {
		t.Fatalf("group entries reached the process cache: Len = %d", Len())
	}
}
