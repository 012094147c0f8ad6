package repcache

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/pipeline"
)

// cacheLen reports the number of distinct simulation points cached.
func cacheLen() int {
	cache.mu.Lock()
	defer cache.mu.Unlock()
	return len(cache.entries)
}

func req() pipeline.Request {
	return pipeline.Request{Model: model.OPT30B, Batch: 4, Context: 8192, OutputLen: 64}
}

// The cache must return the uncached engine's exact result and collapse
// repeated and concurrent lookups of one point into a single entry.
func TestRunMatchesAndDedupes(t *testing.T) {
	Reset()
	cfg := engine.Config{Testbed: device.DefaultTestbed(), Devices: 8, Alpha: engine.AlphaAuto}
	eng, err := engine.New(engine.SysHILOS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct := eng.Run(req())

	var wg sync.WaitGroup
	reps := make([]pipeline.Report, 16)
	errs := make([]error, 16)
	for i := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], errs[i] = Run(engine.SysHILOS, cfg, req())
		}()
	}
	wg.Wait()
	for i, rep := range reps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(rep, direct) {
			t.Fatalf("cached report %d differs from direct run: %+v vs %+v", i, rep, direct)
		}
	}
	if cacheLen() != 1 {
		t.Fatalf("16 identical lookups created %d cache entries, want 1", cacheLen())
	}

	// The key is the normalized Config: spelling out the defaults is a hit.
	cfg.SpillInterval = 16
	if _, err := Run(engine.SysHILOS, cfg, req()); err != nil || cacheLen() != 1 {
		t.Fatalf("normalized-equal Config missed: Len = %d, err %v", cacheLen(), err)
	}
	// A different device count is a different point.
	cfg.Devices = 16
	if _, err := Run(engine.SysHILOS, cfg, req()); err != nil || cacheLen() != 2 {
		t.Fatalf("distinct configs shared an entry: Len = %d, err %v", cacheLen(), err)
	}
}

func TestSystemsKeyedApart(t *testing.T) {
	Reset()
	cfg := engine.Config{Testbed: device.DefaultTestbed()}
	run := func(sys engine.System) pipeline.Report {
		t.Helper()
		rep, err := Run(sys, cfg, req())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(engine.SysFlexSSD), run(engine.SysFlexDRAM)
	if a.System == b.System {
		t.Fatalf("different systems collided: %q", a.System)
	}
	run(engine.SysFlexSSD) // hit
	run(engine.SysVLLM)
	if cacheLen() != 3 {
		t.Fatalf("cache has %d entries, want 3", cacheLen())
	}
	if got := run(engine.SysVLLM); got.System == "" {
		t.Fatal("vLLM report missing system name")
	}
}

// An unknown system or an invalid configuration returns engine.New's error,
// on the miss and on every later lookup of the same key.
func TestRunReturnsEngineError(t *testing.T) {
	Reset()
	tb := device.DefaultTestbed()
	for _, c := range []struct {
		sys engine.System
		cfg engine.Config
	}{
		{"no-such-system", engine.Config{Testbed: tb}},
		{engine.SysHILOS, engine.Config{Testbed: tb, Alpha: 1.5}},
		{engine.SysHILOS, engine.Config{}},
	} {
		for i := 0; i < 2; i++ {
			if _, err := Run(c.sys, c.cfg, req()); err == nil {
				t.Errorf("Run(%q, α=%g) lookup %d returned no error", c.sys, c.cfg.Alpha, i)
			}
		}
	}
}

// An invalid configuration is rejected before it keys the memo: five
// lookups with a NaN α each return the validation error and add no entry,
// although NaN never equals itself and so would never hit one.
func TestRunInvalidConfigStoresNothing(t *testing.T) {
	Reset()
	cfg := engine.Config{Testbed: device.DefaultTestbed(), Alpha: math.NaN()}
	for i := 0; i < 5; i++ {
		if _, err := Run(engine.SysHILOS, cfg, req()); err == nil {
			t.Fatalf("lookup %d with α = NaN returned no error", i)
		}
		if n := cacheLen(); n != 0 {
			t.Fatalf("after lookup %d with α = NaN the memo holds %d entries, want 0", i, n)
		}
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
	if cacheLen() != 0 {
		t.Fatalf("group entries reached the process cache: Len = %d", cacheLen())
	}
}
