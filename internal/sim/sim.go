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
// read from the Result (Result.Finish). Handles and resources remember their
// engine, and using one with another engine panics. Because a dependency
// must exist before its dependents, every graph is acyclic by construction.
//
// Run implements the policy as a dependency-counting event loop over
// per-resource min-heaps (O((n+m)·log n + n·R) for n tasks, m edges and R
// resources). Each resource keeps two typed heaps: runnable task ids ordered
// by id, and waiting (ready, id) entries that carry their final ready time,
// so no comparison calls through a func value or loads a task node. Every
// task's service time, fixed + demand/Rate, is computed once when the pass
// begins. The equivalence tests keep the original O(n²) rescanning list
// scheduler as an oracle and fuzz both on random DAGs for bit-identical
// Results, so Run is a pure performance upgrade.
package sim

import (
	"fmt"
	"math"
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
	n := node{demand: demand, dur: fixed, res: -1, dep0: int32(len(a.deps))}
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

// Finish returns the scheduled completion time of t, a task of the engine
// that produced r.
func (r Result) Finish(t Task) Time { return r.spanOf(t).finish }

func (r Result) spanOf(t Task) span {
	if t.eng == 0 || t.eng != r.eng {
		panic("sim: task handle does not belong to the engine that produced this Result")
	}
	return r.spans[t.id]
}
