// Package sim provides a deterministic resource-constrained task scheduler —
// the discrete-event timing substrate for all HILOS experiments.
//
// A simulated operation is a Task with dependencies, an optional target
// Resource and a demand expressed in that resource's units (bytes for links
// and storage, FLOPs for compute). Resources serialize their tasks in ready
// order, which models contention exactly in the bandwidth-saturated regime
// that dominates offloading-based inference. Dependency edges express
// pipelining and overlap (e.g. next-layer weight prefetch overlapping
// current-layer compute).
//
// The scheduler is a global earliest-start list scheduler: at every step the
// ready task that can start earliest runs next on its resource. Ties break on
// creation order, making every simulation fully deterministic.
//
// A Task is a small value handle: its creation id within one Engine. The
// graph itself lives in a pointer-free arena the Engine takes from a pool —
// task nodes, dependency edges and per-label sums in flat slices — and Run
// returns the arena to the pool before it returns, so building and
// scheduling a graph allocates little beyond the Result. Schedule times are
// read from the Result (Result.Start, Result.Finish). Handles and resources
// remember their engine, and using one with another engine panics. Because
// a dependency must exist before its dependents, every graph is acyclic by
// construction.
//
// Run implements the policy as a dependency-counting event loop over
// per-resource min-heaps (O((n+m)·log n + n·R) for n tasks, m edges and R
// resources); RunReference
// retains the original O(n²) rescanning list scheduler. Both produce
// bit-identical Results — a property the equivalence tests fuzz on random
// DAGs — so Run is a pure performance upgrade.
package sim

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Time is simulated time in seconds.
type Time = float64

// Resource models a serially shared hardware resource: a PCIe link, an SSD
// channel, a GPU, a CPU, an accelerator. Rate is in units/second.
type Resource struct {
	Name string
	Rate float64 // demand units per second; finite and > 0

	eng  uint32 // serial of the owning Engine
	idx  int32  // registration index
	busy Time   // accumulated busy time, set by Run
}

// Busy returns the total time this resource spent executing tasks.
func (r *Resource) Busy() Time { return r.busy }

// Task is a handle to one unit of simulated work in one Engine. The zero
// Task means "no task" and is ignored as a dependency, which simplifies
// conditional pipeline construction.
type Task struct {
	eng uint32 // serial of the owning Engine; 0 for the zero Task
	id  int32  // creation index within the engine
}

// serials numbers engines so handles and resources can be traced to the
// engine that made them; 0 is reserved for the zero Task.
var serials atomic.Uint32

// Engine accumulates resources and tasks and schedules them once.
type Engine struct {
	serial    uint32
	resources []*Resource
	a         *arena // nil once Run has returned it to the pool
	noRecords bool
	tel       *Telemetry
}

// NewEngine returns an empty simulation.
func NewEngine() *Engine {
	s := serials.Add(1)
	for s == 0 {
		s = serials.Add(1)
	}
	return &Engine{serial: s, a: arenas.Get().(*arena)}
}

// RecordTimeline controls whether Run appends a TaskRecord per scheduled
// task to Result.Tasks (the default). Large simulations whose timelines
// nobody reads can opt out to skip the per-task record; Makespan, ByLabel
// and ResourceBusy are unaffected.
func (e *Engine) RecordTimeline(on bool) { e.noRecords = !on }

// live returns the engine's arena, panicking once Run has consumed it.
func (e *Engine) live(op string) *arena {
	if e.a == nil {
		panic(fmt.Sprintf("sim: %s on an engine that already ran", op))
	}
	return e.a
}

// finite reports whether v is a finite number ≥ 0 (false for NaN).
func finite(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// Resource registers a resource with the given service rate (units/second).
func (e *Engine) Resource(name string, rate float64) *Resource {
	if !finite(rate) || rate == 0 {
		panic(fmt.Sprintf("sim: resource %q rate must be finite and positive, got %g", name, rate))
	}
	r := &Resource{Name: name, Rate: rate, eng: e.serial, idx: int32(len(e.resources))}
	e.resources = append(e.resources, r)
	return r
}

// Task adds a task that consumes demand units of r (nil for a task that
// contends with nothing) after all deps finish. Zero deps are ignored.
func (e *Engine) Task(label string, r *Resource, demand float64, deps ...Task) Task {
	if !finite(demand) {
		panic(fmt.Sprintf("sim: task %q demand must be finite and non-negative, got %g", label, demand))
	}
	return e.add(label, r, demand, 0, deps)
}

// Delay adds a pure-latency task (no resource contention) of duration d.
func (e *Engine) Delay(label string, d Time, deps ...Task) Task {
	if !finite(d) {
		panic(fmt.Sprintf("sim: delay %q must be finite and non-negative, got %g", label, d))
	}
	return e.add(label, nil, 0, d, deps)
}

// Barrier adds a zero-duration task depending on all deps; use it to join
// fan-out stages.
func (e *Engine) Barrier(label string, deps ...Task) Task {
	return e.add(label, nil, 0, 0, deps)
}

func (e *Engine) add(label string, r *Resource, demand float64, fixed Time, deps []Task) Task {
	a := e.live("Task")
	n := node{demand: demand, fixed: fixed, res: -1, dep0: int32(len(a.deps))}
	if r != nil {
		if r.eng != e.serial {
			panic(fmt.Sprintf("sim: task %q uses resource %q of another engine", label, r.Name))
		}
		n.res = r.idx
	}
	for _, d := range deps {
		if d.eng != e.serial {
			if d.eng == 0 {
				continue
			}
			a.deps = a.deps[:n.dep0] // leave the graph as it was
			panic(fmt.Sprintf("sim: task %q depends on a task of another engine", label))
		}
		a.deps = append(a.deps, d.id)
	}
	n.ndep = int32(len(a.deps)) - n.dep0
	n.label = a.intern(label)
	a.nodes = append(a.nodes, n)
	return Task{eng: e.serial, id: int32(len(a.nodes) - 1)}
}

// service is a task's service time: its fixed latency plus its demand at
// its resource's rate.
func (e *Engine) service(n *node) Time {
	d := n.fixed
	if n.res >= 0 {
		d += n.demand / e.resources[n.res].Rate
	}
	return d
}

// TaskRecord is one scheduled task, for timeline export and debugging.
type TaskRecord struct {
	Label    string
	Resource string // "" for pure-latency tasks
	Start    Time
	Finish   Time
}

// Result summarizes a completed simulation.
type Result struct {
	Makespan Time
	// ByLabel is the total busy time attributed to each task label,
	// summed over all resources (pure-latency tasks included).
	ByLabel map[string]Time
	// ResourceBusy maps resource name to accumulated busy time.
	ResourceBusy map[string]Time
	// Tasks records every scheduled task in scheduling order.
	Tasks []TaskRecord

	eng   uint32
	spans []span // indexed by task id
}

// span is one task's scheduled interval.
type span struct{ start, finish Time }

// Start returns the scheduled start time of t, a task of the engine that
// produced r.
func (r Result) Start(t Task) Time { return r.spanOf(t).start }

// Finish returns the scheduled completion time of t, a task of the engine
// that produced r.
func (r Result) Finish(t Task) Time { return r.spanOf(t).finish }

func (r Result) spanOf(t Task) span {
	if t.eng == 0 || t.eng != r.eng {
		panic("sim: task handle does not belong to the engine that produced this Result")
	}
	return r.spans[t.id]
}

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

// RunReference schedules every task with the original O(n²) list scheduler:
// every step rescans all pending tasks for the one that can start earliest.
// It is retained as the behavioral reference for Run — the equivalence
// tests assert both produce identical Results on random DAGs — and as the
// baseline the scheduler benchmarks measure speedups against. Like Run, it
// may be called once per Engine.
func (e *Engine) RunReference() Result {
	p := e.begin()
	nodes, deps, spans := p.a.nodes, p.a.deps, p.res.spans
	free := make([]Time, len(e.resources))
	done := make([]bool, len(nodes))
	for remaining := len(nodes); remaining > 0; remaining-- {
		pick := -1
		var pickStart Time
	scan:
		for i := range nodes {
			if done[i] {
				continue
			}
			n := &nodes[i]
			var s Time
			for _, d := range deps[n.dep0 : n.dep0+n.ndep] {
				if !done[d] {
					continue scan
				}
				if f := spans[d].finish; f > s {
					s = f
				}
			}
			if n.res >= 0 && free[n.res] > s {
				s = free[n.res]
			}
			if pick == -1 || s < pickStart {
				pick, pickStart = i, s
			}
		}
		done[pick] = true
		finish := p.place(int32(pick), pickStart)
		if r := nodes[pick].res; r >= 0 {
			free[r] = finish
		}
	}
	return p.end()
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
		longest[i] = in + e.service(&a.nodes[i])
		if longest[i] > cp {
			cp = longest[i]
		}
	}
	return cp
}
