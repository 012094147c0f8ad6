package sim

import (
	"math/rand"
	"strings"
	"testing"
)

// buildRandomDAG constructs one random simulation on e, exercising every
// task flavor the engines use: resource tasks with fixed latency adders,
// zero-duration barriers, nil-resource delays, nil deps, and fan-in/fan-out
// edges. The construction is a pure function of rng's stream, so two
// engines built from equal seeds hold identical graphs.
func buildRandomDAG(e *Engine, rng *rand.Rand, nTasks int) []Task {
	nres := 1 + rng.Intn(4)
	rs := make([]*Resource, nres)
	for i := range rs {
		rs[i] = e.Resource("r", 0.5+rng.Float64()*9.5)
	}
	var tasks []Task
	for i := 0; i < nTasks; i++ {
		var deps []Task
		// Sparse random back-edges, biased toward recent tasks so deep
		// chains and wide fan-outs both occur.
		for _, prev := range tasks {
			if rng.Float64() < 0.08 {
				deps = append(deps, prev)
			}
		}
		if len(tasks) > 0 && rng.Float64() < 0.5 {
			deps = append(deps, tasks[rng.Intn(len(tasks))])
		}
		if rng.Float64() < 0.1 {
			deps = append(deps, Task{}) // zero deps must be ignored
		}
		switch rng.Intn(10) {
		case 0: // zero-duration barrier joining the deps
			tasks = append(tasks, e.Barrier("barrier", deps...))
		case 1: // pure-latency delay (nil resource)
			tasks = append(tasks, e.Delay("delay", rng.Float64()*3, deps...))
		case 2: // zero-demand resource task
			tasks = append(tasks, e.Task("zero", rs[rng.Intn(nres)], 0, deps...))
		default:
			t := e.Task("work", rs[rng.Intn(nres)], rng.Float64()*10, deps...)
			if rng.Intn(3) == 0 {
				// A fixed latency adder on a resource task: no builder
				// makes one through the API, but both schedulers and
				// CriticalPath must handle the sum.
				e.a.nodes[t.id].fixed = rng.Float64() * 0.5
			}
			tasks = append(tasks, t)
		}
	}
	return tasks
}

// checkEquivalent runs the heap scheduler and the retained reference
// scheduler on identically built engines and requires bit-identical
// results: Makespan, ByLabel, ResourceBusy, the scheduling-order timeline,
// and every task's start/finish.
func checkEquivalent(t *testing.T, seed int64, nTasks int) {
	t.Helper()
	eNew, eRef := NewEngine(), NewEngine()
	tasksNew := buildRandomDAG(eNew, rand.New(rand.NewSource(seed)), nTasks)
	tasksRef := buildRandomDAG(eRef, rand.New(rand.NewSource(seed)), nTasks)

	rNew := eNew.Run()
	rRef := eRef.RunReference()

	if rNew.Makespan != rRef.Makespan {
		t.Fatalf("seed %d: makespan %v (heap) != %v (reference)", seed, rNew.Makespan, rRef.Makespan)
	}
	if len(rNew.ByLabel) != len(rRef.ByLabel) {
		t.Fatalf("seed %d: ByLabel sizes differ: %d vs %d", seed, len(rNew.ByLabel), len(rRef.ByLabel))
	}
	for k, v := range rRef.ByLabel {
		if rNew.ByLabel[k] != v {
			t.Fatalf("seed %d: ByLabel[%q] = %v (heap) != %v (reference)", seed, k, rNew.ByLabel[k], v)
		}
	}
	for k, v := range rRef.ResourceBusy {
		if rNew.ResourceBusy[k] != v {
			t.Fatalf("seed %d: ResourceBusy[%q] = %v (heap) != %v (reference)", seed, k, rNew.ResourceBusy[k], v)
		}
	}
	if len(rNew.Tasks) != len(rRef.Tasks) {
		t.Fatalf("seed %d: timeline lengths differ: %d vs %d", seed, len(rNew.Tasks), len(rRef.Tasks))
	}
	for i := range rRef.Tasks {
		if rNew.Tasks[i] != rRef.Tasks[i] {
			t.Fatalf("seed %d: timeline[%d] = %+v (heap) != %+v (reference)",
				seed, i, rNew.Tasks[i], rRef.Tasks[i])
		}
	}
	for i := range tasksRef {
		sNew, fNew := rNew.Start(tasksNew[i]), rNew.Finish(tasksNew[i])
		sRef, fRef := rRef.Start(tasksRef[i]), rRef.Finish(tasksRef[i])
		if sNew != sRef || fNew != fRef {
			t.Fatalf("seed %d: task %d scheduled [%v,%v] (heap) vs [%v,%v] (reference)",
				seed, i, sNew, fNew, sRef, fRef)
		}
	}
}

// TestSchedulerEquivalenceRandomDAGs is the property test guarding the
// event-driven rewrite: across many random DAGs, Run and RunReference must
// agree exactly.
func TestSchedulerEquivalenceRandomDAGs(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		checkEquivalent(t, seed, 5+int(seed%120))
	}
}

// FuzzSchedulerEquivalence extends the property test to fuzzed seeds and
// graph sizes.
func FuzzSchedulerEquivalence(f *testing.F) {
	f.Add(int64(1), 40)
	f.Add(int64(77), 3)
	f.Add(int64(1234), 200)
	f.Fuzz(func(t *testing.T, seed int64, n int) {
		if n < 1 || n > 400 {
			return
		}
		checkEquivalent(t, seed, n)
	})
}

// TestSchedulerEquivalencePipeline pins the exact workload shape of
// BenchmarkSchedulerListScheduling (two alternating resources, a long
// dependency chain) at a reduced size.
func TestSchedulerEquivalencePipeline(t *testing.T) {
	build := func(e *Engine) {
		r1 := e.Resource("a", 10)
		r2 := e.Resource("b", 5)
		var prev Task
		for l := 0; l < 300; l++ {
			t1 := e.Task("x", r1, 3, prev)
			prev = e.Task("y", r2, 2, t1)
		}
	}
	eNew, eRef := NewEngine(), NewEngine()
	build(eNew)
	build(eRef)
	rNew, rRef := eNew.Run(), eRef.RunReference()
	if rNew.Makespan != rRef.Makespan {
		t.Fatalf("makespan %v != %v", rNew.Makespan, rRef.Makespan)
	}
	for i := range rRef.Tasks {
		if rNew.Tasks[i] != rRef.Tasks[i] {
			t.Fatalf("timeline[%d]: %+v vs %+v", i, rNew.Tasks[i], rRef.Tasks[i])
		}
	}
}

// TestForeignEngineHandlesPanic: a task handle or resource is an index into
// its own engine's arena, so using one with another engine must panic rather
// than silently alias a task of the same id — as a dependency, as a task's
// resource, or when reading a Result's schedule.
func TestForeignEngineHandlesPanic(t *testing.T) {
	e1, e2 := NewEngine(), NewEngine()
	r1 := e1.Resource("up", 2)
	a := e1.Task("first", r1, 10)
	r2 := e2.Resource("down", 1)
	b := e2.Task("second", r2, 3)
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"foreign dependency", func() { e2.Task("dep", r2, 1, a) }},
		{"foreign resource", func() { e2.Task("res", r1, 1) }},
		{"foreign delay dependency", func() { e2.Delay("delay", 1, b, a) }},
		{"foreign barrier dependency", func() { e2.Barrier("join", a) }},
	} {
		if msg := panicMessage(c.f); !strings.Contains(msg, "another engine") {
			t.Errorf("%s: got panic %q, want a foreign-engine panic", c.name, msg)
		}
	}
	// The rejected calls left e2's graph as it was.
	res1, res2 := e1.Run(), e2.Run()
	if res1.Finish(a) != 5 || res2.Finish(b) != 3 || len(res2.Tasks) != 1 || len(res2.ByLabel) != 1 {
		t.Fatalf("own handles: finishes %v, %v, want 5, 3; e2 ran %d tasks under %d labels, want 1, 1",
			res1.Finish(a), res2.Finish(b), len(res2.Tasks), len(res2.ByLabel))
	}
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"foreign Finish", func() { res2.Finish(a) }},
		{"foreign Start", func() { res1.Start(b) }},
		{"zero Task", func() { res1.Finish(Task{}) }},
	} {
		if panicMessage(c.f) == "" {
			t.Errorf("%s: did not panic", c.name)
		}
	}
}

// TestRecordTimelineOptOut: disabling timeline recording must not change
// any aggregate, only suppress Result.Tasks.
func TestRecordTimelineOptOut(t *testing.T) {
	build := func() *Engine {
		e := NewEngine()
		buildRandomDAG(e, rand.New(rand.NewSource(99)), 60)
		return e
	}
	on := build()
	off := build()
	off.RecordTimeline(false)
	rOn, rOff := on.Run(), off.Run()
	if len(rOff.Tasks) != 0 {
		t.Fatalf("opt-out still recorded %d task records", len(rOff.Tasks))
	}
	if len(rOn.Tasks) == 0 {
		t.Fatal("default run recorded no task records")
	}
	if rOn.Makespan != rOff.Makespan {
		t.Errorf("makespan changed by opt-out: %v vs %v", rOn.Makespan, rOff.Makespan)
	}
	for k, v := range rOn.ByLabel {
		if rOff.ByLabel[k] != v {
			t.Errorf("ByLabel[%q] changed by opt-out: %v vs %v", k, rOff.ByLabel[k], v)
		}
	}

	// The reference scheduler honors the same opt-out.
	ref := build()
	ref.RecordTimeline(false)
	if rRef := ref.RunReference(); len(rRef.Tasks) != 0 {
		t.Fatalf("reference opt-out still recorded %d task records", len(rRef.Tasks))
	}
}

// TestRunReferencePanicsTwice mirrors TestRunTwicePanics for the reference
// entry point; both share the one-shot guard.
func TestRunReferencePanicsTwice(t *testing.T) {
	e := NewEngine()
	e.RunReference()
	defer func() {
		if recover() == nil {
			t.Error("second RunReference did not panic")
		}
	}()
	e.Run()
}
