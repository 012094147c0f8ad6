package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// runRandom builds the random DAG of seed on e and schedules it.
func runRandom(e *Engine, seed int64, n int) Result {
	buildRandomDAG(e, rand.New(rand.NewSource(seed)), n)
	return e.Run()
}

// sameResult reports whether two Results of equally built engines agree
// bit for bit: aggregates, timeline and every task's span.
func sameResult(a, b Result) bool {
	a.eng, b.eng = 0, 0
	return reflect.DeepEqual(a, b)
}

// buildLarge builds a 20,000-task graph on more resources and labels than
// any random DAG uses, so leftovers of it would show in a later small run.
func buildLarge(e *Engine) *Engine {
	rs := make([]*Resource, 12)
	for i := range rs {
		rs[i] = e.Resource(fmt.Sprintf("big%d", i), float64(1+i))
	}
	var prev [3]Task
	for i := 0; i < 20000; i++ {
		label := fmt.Sprintf("big%d", i%40)
		prev[i%3] = e.Task(label, rs[i%len(rs)], float64(i%7), prev[(i+1)%3], prev[(i+2)%3])
	}
	return e
}

// freshEngine returns an engine whose arena never passed through the pool,
// standing in for a run in a fresh process.
func freshEngine() *Engine {
	e := NewEngine()
	e.a = new(arena)
	return e
}

// TestArenaReuseLeavesNoTrace: a small graph scheduled on an arena recycled
// from a much larger run must produce exactly what a never-used arena does,
// so no node, edge, label sum, heap entry or queue state leaks through the
// pool.
func TestArenaReuseLeavesNoTrace(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		want := runRandom(freshEngine(), seed, 30)
		buildLarge(NewEngine()).Run()
		if got := runRandom(NewEngine(), seed, 30); !sameResult(got, want) {
			t.Fatalf("seed %d: result after a large run differs from a fresh arena's", seed)
		}
		// The reference scheduler shares the arena life cycle.
		ref := NewEngine()
		buildRandomDAG(ref, rand.New(rand.NewSource(seed)), 30)
		if got := ref.RunReference(); !sameResult(got, want) {
			t.Fatalf("seed %d: reference result on a recycled arena differs", seed)
		}
	}
}

// TestConcurrentEngines builds and runs engines from 8 goroutines at once;
// under -race this checks that the arena pool hands each engine its own
// state, and every result must match its serially computed twin.
func TestConcurrentEngines(t *testing.T) {
	const workers, perWorker = 8, 12
	want := make([]Result, workers*perWorker)
	for i := range want {
		want[i] = runRandom(freshEngine(), int64(i), 20+i*7)
	}
	got := make([]Result, len(want))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				i := w*perWorker + k
				got[i] = runRandom(NewEngine(), int64(i), 20+i*7)
			}
		}(w)
	}
	wg.Wait()
	for i := range want {
		if !sameResult(got[i], want[i]) {
			t.Errorf("graph %d: concurrent result differs from the serial one", i)
		}
	}
}

// TestTaskAfterRunPanics: Run hands the arena back to the pool, so every
// graph-building or graph-reading call afterwards must panic instead of
// writing into an arena another engine may now own.
func TestTaskAfterRunPanics(t *testing.T) {
	for _, run := range []func(e *Engine) Result{(*Engine).Run, (*Engine).RunReference} {
		e := NewEngine()
		r := e.Resource("r", 1)
		a := e.Task("a", r, 1)
		run(e)
		for _, c := range []struct {
			name string
			f    func()
		}{
			{"Task", func() { e.Task("b", r, 1, a) }},
			{"Delay", func() { e.Delay("c", 1) }},
			{"Barrier", func() { e.Barrier("d", a) }},
			{"CriticalPath", func() { e.CriticalPath() }},
			{"Run", func() { e.Run() }},
			{"RunReference", func() { e.RunReference() }},
		} {
			if panicMessage(c.f) == "" {
				t.Errorf("%s after a run did not panic", c.name)
			}
		}
	}
}

// TestInternLabels: labels get indices in first-use order, and ByLabel
// sums each one, from a single label up to far more than the engines use,
// on fresh and recycled arenas alike.
func TestInternLabels(t *testing.T) {
	for _, distinct := range []int{1, 7, 40, 3} {
		e := NewEngine()
		for i := 0; i < 3*distinct; i++ {
			e.Delay(fmt.Sprintf("l%d", i%distinct), 1)
		}
		a := e.a
		if len(a.labels) != distinct {
			t.Fatalf("%d labels: interned %d", distinct, len(a.labels))
		}
		for i, l := range a.labels {
			if want := fmt.Sprintf("l%d", i); l != want {
				t.Fatalf("%d labels: label %d is %q, want %q", distinct, i, l, want)
			}
		}
		for i := range a.nodes {
			if got := a.nodes[i].label; got != int32(i%distinct) {
				t.Fatalf("%d labels: task %d has label %d, want %d", distinct, i, got, i%distinct)
			}
		}
		res := e.Run()
		if len(res.ByLabel) != distinct {
			t.Fatalf("%d labels: ByLabel has %d", distinct, len(res.ByLabel))
		}
		for l, v := range res.ByLabel {
			if v != 3 {
				t.Errorf("%d labels: ByLabel[%q] = %v, want 3", distinct, l, v)
			}
		}
	}
}
