package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// Read-back helpers the tests use to check schedules.

// Busy returns the total time this resource spent executing tasks.
func (r *Resource) Busy() Time { return r.busy }

// Start returns the scheduled start time of t, a task of the engine that
// produced r.
func (r Result) Start(t Task) Time { return r.spanOf(t).start }

// Utilization returns busy/makespan for the named resource, in [0,1].
func (r Result) Utilization(name string) float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return r.ResourceBusy[name] / r.Makespan
}

// LabelShare returns label busy time as a fraction of the sum over all
// labels, matching the stacked-percentage breakdowns in the paper's figures.
// The total is summed over sorted keys: float addition is not associative,
// so summing in map iteration order would make the last bits of the share
// vary between runs (caught by hilos-lint's simdeterminism rule).
func (r Result) LabelShare(label string) float64 {
	labels := make([]string, 0, len(r.ByLabel))
	for l := range r.ByLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var total Time
	for _, l := range labels {
		total += r.ByLabel[l]
	}
	if total <= 0 {
		return 0
	}
	return r.ByLabel[label] / total
}

// CriticalPath returns the longest dependency-only path length (ignoring
// resource contention); Run's makespan can never be shorter. Useful as a
// test invariant. It must be called before Run.
func (e *Engine) CriticalPath() Time {
	a := e.live("CriticalPath")
	longest := make([]Time, len(a.nodes))
	var cp Time
	for i := range a.nodes {
		var in Time
		for _, d := range a.depsOf(&a.nodes[i]) {
			if longest[d] > in {
				in = longest[d]
			}
		}
		n := &a.nodes[i]
		dur := n.dur
		if n.res >= 0 {
			dur += n.demand / e.resources[n.res].Rate
		}
		longest[i] = in + dur
		if longest[i] > cp {
			cp = longest[i]
		}
	}
	return cp
}

func TestSingleTask(t *testing.T) {
	e := NewEngine()
	r := e.Resource("link", 100) // 100 B/s
	e.Task("xfer", r, 50)
	res := e.Run()
	if res.Makespan != 0.5 {
		t.Errorf("makespan = %v, want 0.5", res.Makespan)
	}
	if res.ByLabel["xfer"] != 0.5 {
		t.Errorf("label time = %v, want 0.5", res.ByLabel["xfer"])
	}
	if u := res.Utilization("link"); u != 1 {
		t.Errorf("utilization = %v, want 1", u)
	}
}

func TestSerialContention(t *testing.T) {
	e := NewEngine()
	r := e.Resource("ssd", 10)
	e.Task("a", r, 10)
	e.Task("b", r, 10)
	res := e.Run()
	if res.Makespan != 2 {
		t.Errorf("two contending tasks: makespan = %v, want 2", res.Makespan)
	}
}

func TestParallelResources(t *testing.T) {
	e := NewEngine()
	r1 := e.Resource("ssd0", 10)
	r2 := e.Resource("ssd1", 10)
	e.Task("a", r1, 10)
	e.Task("b", r2, 10)
	res := e.Run()
	if res.Makespan != 1 {
		t.Errorf("independent resources: makespan = %v, want 1", res.Makespan)
	}
}

func TestDependencyChain(t *testing.T) {
	e := NewEngine()
	r := e.Resource("gpu", 1)
	a := e.Task("a", r, 1)
	b := e.Task("b", r, 2, a)
	c := e.Delay("c", 0.5, b)
	res := e.Run()
	if res.Makespan != 3.5 {
		t.Errorf("chain makespan = %v, want 3.5", res.Makespan)
	}
	if res.Start(c) != 3 || res.Finish(c) != 3.5 {
		t.Errorf("delay scheduled at [%v,%v], want [3,3.5]", res.Start(c), res.Finish(c))
	}
}

func TestPipelineOverlap(t *testing.T) {
	// Two-stage pipeline over 3 items: stage1 on r1 (1s each), stage2 on r2
	// (1s each). Perfect pipelining gives makespan 4, not 6.
	e := NewEngine()
	r1 := e.Resource("s1", 1)
	r2 := e.Resource("s2", 1)
	for i := 0; i < 3; i++ {
		a := e.Task("stage1", r1, 1)
		e.Task("stage2", r2, 1, a)
	}
	res := e.Run()
	if res.Makespan != 4 {
		t.Errorf("pipeline makespan = %v, want 4", res.Makespan)
	}
}

func TestBarrierJoins(t *testing.T) {
	e := NewEngine()
	r1 := e.Resource("a", 1)
	r2 := e.Resource("b", 1)
	t1 := e.Task("x", r1, 1)
	t2 := e.Task("y", r2, 3)
	bar := e.Barrier("join", t1, t2)
	e.Delay("after", 1, bar)
	res := e.Run()
	if res.Makespan != 4 {
		t.Errorf("barrier makespan = %v, want 4", res.Makespan)
	}
}

// TestNilDepsIgnored: the zero Task stands for "no task" and is skipped as a
// dependency.
func TestNilDepsIgnored(t *testing.T) {
	e := NewEngine()
	r := e.Resource("r", 1)
	var none Task
	e.Task("a", r, 1, none, Task{})
	res := e.Run()
	if res.Makespan != 1 {
		t.Errorf("makespan = %v, want 1", res.Makespan)
	}
}

func TestMakespanAtLeastCriticalPath(t *testing.T) {
	// Random DAGs: resource-constrained makespan >= dependency critical path,
	// and >= max per-resource total demand / rate.
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		nres := 2 + rng.Intn(3)
		rs := make([]*Resource, nres)
		for i := range rs {
			rs[i] = e.Resource("r", 1+rng.Float64()*9)
		}
		var tasks []Task
		perRes := make([]float64, nres)
		for i := 0; i < 40; i++ {
			var deps []Task
			for _, prev := range tasks {
				if rng.Float64() < 0.05 {
					deps = append(deps, prev)
				}
			}
			ri := rng.Intn(nres)
			demand := rng.Float64() * 10
			perRes[ri] += demand / rs[ri].Rate
			tasks = append(tasks, e.Task("t", rs[ri], demand, deps...))
		}
		cp := e.CriticalPath()
		res := e.Run()
		if res.Makespan < cp-1e-9 {
			t.Fatalf("seed %d: makespan %v < critical path %v", seed, res.Makespan, cp)
		}
		for i, load := range perRes {
			if res.Makespan < load-1e-9 {
				t.Fatalf("seed %d: makespan %v < resource %d load %v", seed, res.Makespan, i, load)
			}
			if rs[i].Busy() > res.Makespan+1e-9 {
				t.Fatalf("seed %d: resource busy %v exceeds makespan %v", seed, rs[i].Busy(), res.Makespan)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	build := func() Result {
		e := NewEngine()
		r1 := e.Resource("a", 2)
		r2 := e.Resource("b", 3)
		var last Task
		for i := 0; i < 20; i++ {
			t1 := e.Task("l1", r1, float64(i%5)+1, last)
			last = e.Task("l2", r2, float64(i%3)+1, t1)
		}
		return e.Run()
	}
	a, b := build(), build()
	if a.Makespan != b.Makespan {
		t.Errorf("nondeterministic makespan: %v vs %v", a.Makespan, b.Makespan)
	}
	for k, v := range a.ByLabel {
		if b.ByLabel[k] != v {
			t.Errorf("nondeterministic label %q: %v vs %v", k, v, b.ByLabel[k])
		}
	}
}

func TestLabelShare(t *testing.T) {
	e := NewEngine()
	r := e.Resource("r", 1)
	e.Task("a", r, 3)
	e.Task("b", r, 1)
	res := e.Run()
	if s := res.LabelShare("a"); math.Abs(s-0.75) > 1e-12 {
		t.Errorf("share(a) = %v, want 0.75", s)
	}
}

func TestRunTwicePanics(t *testing.T) {
	e := NewEngine()
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("second Run did not panic")
		}
	}()
	e.Run()
}

// TestZeroRatePanics: non-positive or non-finite rates, and non-finite or
// negative demands and delays, are rejected at construction with a panic
// naming the offender — NaN slips through plain comparisons and would
// otherwise schedule NaN or negative finishes.
func TestZeroRatePanics(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name  string
		build func(e *Engine)
	}{
		{"zero rate", func(e *Engine) { e.Resource("bad", 0) }},
		{"negative rate", func(e *Engine) { e.Resource("bad", -1) }},
		{"NaN rate", func(e *Engine) { e.Resource("bad", nan) }},
		{"infinite rate", func(e *Engine) { e.Resource("bad", inf) }},
		{"negative demand", func(e *Engine) { e.Task("bad", e.Resource("r", 1), -1) }},
		{"NaN demand", func(e *Engine) { e.Task("bad", e.Resource("r", 1), nan) }},
		{"infinite demand", func(e *Engine) { e.Task("bad", e.Resource("r", 1), inf) }},
		{"NaN demand without resource", func(e *Engine) { e.Task("bad", nil, nan) }},
		{"negative delay", func(e *Engine) { e.Delay("bad", -5) }},
		{"NaN delay", func(e *Engine) { e.Delay("bad", nan) }},
		{"infinite delay", func(e *Engine) { e.Delay("bad", inf) }},
		{"negative infinite delay", func(e *Engine) { e.Delay("bad", math.Inf(-1)) }},
	} {
		if msg := panicMessage(func() { c.build(NewEngine()) }); !strings.Contains(msg, `"bad"`) {
			t.Errorf("%s: panic %q does not name the offender", c.name, msg)
		}
	}
	// Zero demand and zero delay stay valid.
	e := NewEngine()
	e.Task("ok", e.Resource("r", 1), 0)
	e.Delay("ok", 0)
	if res := e.Run(); res.Makespan != 0 {
		t.Errorf("zero-length tasks: makespan %v, want 0", res.Makespan)
	}
}

// panicMessage runs f and returns the message it panicked with, or "" if it
// returned normally.
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}
