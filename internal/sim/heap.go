package sim

import (
	"slices"
	"sync"
)

// This file holds the engine's arena and Run, the event-driven replacement
// for the O(n²) rescanning list scheduler retained as RunReference. The
// policy is identical — among all ready tasks, run the one with the
// earliest possible start time, ties broken by creation id — but the ready
// set is maintained incrementally:
//
//   - dependency counting makes a task ready the moment its last dependency
//     finishes (its ready time is the running max of dependency finishes);
//   - each resource keeps two min-heaps of its ready task ids: "waiting"
//     (ready time still ahead of the resource's free time, ordered by
//     (ready, id)) and "runnable" (startable the instant the resource
//     frees, ordered by id alone — they all share start == free);
//   - each resource caches its best candidate (start, id), and the next
//     task is the earliest of those R candidates.
//
// Whenever a resource's free time advances, its waiting heap drains into
// runnable. All start/finish arithmetic matches RunReference operation for
// operation, so the two schedulers produce bit-identical Results.

// node is one task in the arena; its index is the task's id. It holds no
// pointers, so building and scheduling a graph pays no write barriers.
type node struct {
	demand  float64
	fixed   Time
	ready   Time  // max finish over completed dependencies (Run)
	res     int32 // resource index, -1 for pure-latency tasks
	label   int32 // index into arena.labels
	dep0    int32 // arena.deps[dep0 : dep0+ndep] are the dependencies
	ndep    int32
	succ0   int32 // arena.succ[succ0 : succ0+nsucc] are the dependents (Run)
	nsucc   int32
	waiting int32 // unfinished dependencies (Run)
}

// arena is one engine's graph and scheduling state. Engines take arenas
// from a pool and Run hands them back, so steady-state graph construction
// reuses the slices of earlier runs.
type arena struct {
	nodes  []node
	deps   []int32
	succ   []int32          // successor lists in CSR form, built by Run
	labels []string         // interned task labels
	index  map[string]int32 // label → index into labels
	sums   []Time           // per-label busy time, summed in schedule order
	queues []queue          // per resource, then the pure-latency pseudo-resource
}

var arenas = sync.Pool{New: func() any { return &arena{index: map[string]int32{}} }}

// intern returns label's index, registering it on first use.
func (a *arena) intern(label string) int32 {
	i, ok := a.index[label]
	if !ok {
		i = int32(len(a.labels))
		a.index[label] = i
		a.labels = append(a.labels, label)
		a.sums = append(a.sums, 0)
	}
	return i
}

func (a *arena) depsOf(n *node) []int32 { return a.deps[n.dep0 : n.dep0+n.ndep] }

// queue is one resource's scheduling state. The pure-latency
// pseudo-resource contends with nothing: its free time stays 0, so its
// tasks start exactly at their ready time.
type queue struct {
	free     Time
	busy     Time
	waiting  idHeap
	runnable idHeap
	cand     candidate // the queue's best offer, valid when ok
	ok       bool
}

// pass is one scheduling pass over an arena: the Result it fills in
// schedule order and the telemetry sink it reports to. Run and RunReference
// differ only in how they pick the next task.
type pass struct {
	e   *Engine
	a   *arena
	tel *Telemetry
	res Result
}

// begin claims the engine's arena for its single scheduling pass.
func (e *Engine) begin() pass {
	a := e.live("Run")
	e.a = nil
	n := len(a.nodes)
	p := pass{e: e, a: a, tel: e.telemetrySink(), res: Result{eng: e.serial, spans: make([]span, n)}}
	if !e.noRecords {
		p.res.Tasks = make([]TaskRecord, 0, n)
	}
	nq := len(e.resources) + 1
	a.queues = slices.Grow(a.queues[:0], nq)[:nq]
	for i := range a.queues {
		q := &a.queues[i]
		*q = queue{waiting: q.waiting[:0], runnable: q.runnable[:0]}
	}
	return p
}

// place schedules task t at start and returns its finish time.
func (p *pass) place(t int32, start Time) Time {
	n := &p.a.nodes[t]
	dur := p.e.service(n)
	finish := start + dur
	p.res.spans[t] = span{start, finish}
	resName := ""
	if n.res >= 0 {
		p.a.queues[n.res].busy += dur
		resName = p.e.resources[n.res].Name
	}
	p.a.sums[n.label] += dur
	if finish > p.res.Makespan {
		p.res.Makespan = finish
	}
	if !p.e.noRecords {
		p.res.Tasks = append(p.res.Tasks, TaskRecord{
			Label: p.a.labels[n.label], Resource: resName, Start: start, Finish: finish,
		})
	}
	if p.tel != nil {
		p.tel.observeTask(p.a.labels[n.label], resName, start, finish)
	}
	return finish
}

// end fills the per-label and per-resource totals, returns the arena to the
// pool and hands back the Result.
func (p *pass) end() Result {
	e, a := p.e, p.a
	p.res.ByLabel = make(map[string]Time, len(a.labels))
	for i, l := range a.labels {
		p.res.ByLabel[l] = a.sums[i]
	}
	p.res.ResourceBusy = make(map[string]Time, len(e.resources))
	for i, r := range e.resources {
		r.busy = a.queues[i].busy
		p.res.ResourceBusy[r.Name] = r.busy
	}
	if p.tel != nil {
		p.tel.observeRun(e, p.res.Makespan)
	}
	clear(a.labels)
	clear(a.index)
	a.nodes, a.deps, a.labels, a.sums = a.nodes[:0], a.deps[:0], a.labels[:0], a.sums[:0]
	arenas.Put(a)
	return p.res
}

// idHeap is a binary min-heap of task ids under an externally chosen order.
type idHeap []int32

// lessReady orders by (ready, id): the waiting heap and the pure-latency
// pseudo-resource, whose tasks start exactly at their ready time.
func lessReady(x, y *node, i, j int32) bool {
	return x.ready < y.ready || (x.ready == y.ready && i < j)
}

// lessID orders by id alone: the runnable heap, where every task would
// start at the resource's shared free time.
func lessID(_, _ *node, i, j int32) bool { return i < j }

func (h *idHeap) push(nodes []node, t int32, less func(x, y *node, i, j int32) bool) {
	*h = append(*h, t)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !less(&nodes[s[i]], &nodes[s[p]], s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *idHeap) pop(nodes []node, less func(x, y *node, i, j int32) bool) int32 {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && less(&nodes[s[l]], &nodes[s[m]], s[l], s[m]) {
			m = l
		}
		if r < n && less(&nodes[s[r]], &nodes[s[m]], s[r], s[m]) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// candidate is a resource's best (start, id) offer.
type candidate struct {
	start Time
	id    int32
}

func (c candidate) less(o candidate) bool {
	return c.start < o.start || (c.start == o.start && c.id < o.id)
}

// best returns the queue's current candidate, or ok=false when it has no
// ready tasks. The runnable heap wins when non-empty: all its tasks would
// start at free, which can never exceed the waiting heap's earliest ready
// time (waiting holds only ready > free).
func best(q *queue, nodes []node) (candidate, bool) {
	if len(q.runnable) > 0 {
		return candidate{start: q.free, id: q.runnable[0]}, true
	}
	if len(q.waiting) > 0 {
		return candidate{start: nodes[q.waiting[0]].ready, id: q.waiting[0]}, true
	}
	return candidate{}, false
}

// fix re-evaluates q's candidate after its heaps or free time changed.
func (a *arena) fix(q *queue) { q.cand, q.ok = best(q, a.nodes) }

// next returns the queue holding the earliest candidate overall. Graphs use
// a handful of resources, so a scan over the cached candidates is cheaper
// than maintaining a heap of them.
func (a *arena) next() *queue {
	var b *queue
	for i := range a.queues {
		if q := &a.queues[i]; q.ok && (b == nil || q.cand.less(b.cand)) {
			b = q
		}
	}
	return b
}

// enqueue files a task whose last dependency just finished.
func (a *arena) enqueue(t int32) {
	n := &a.nodes[t]
	qi := n.res
	if qi < 0 {
		qi = int32(len(a.queues) - 1)
	}
	q := &a.queues[qi]
	if n.res >= 0 && n.ready <= q.free {
		q.runnable.push(a.nodes, t, lessID)
	} else {
		q.waiting.push(a.nodes, t, lessReady)
	}
	a.fix(q)
}

// Run schedules every task and returns the simulation result. Run may be
// called once per Engine and returns the engine's arena to the pool, so
// Task after Run panics. It implements the same earliest-start policy as
// RunReference (bit-identical Results) in O((n+m)·log n + n·R) for n tasks,
// m dependency edges and R resources.
func (e *Engine) Run() Result {
	p := e.begin()
	a := p.a
	nodes := a.nodes

	// Successor lists in CSR form: count each task's dependents, lay the
	// lists out back to back, then fill them in task order.
	for _, d := range a.deps {
		nodes[d].nsucc++
	}
	var off int32
	for i := range nodes {
		n := &nodes[i]
		n.succ0, off, n.nsucc = off, off+n.nsucc, 0
		n.waiting, n.ready = n.ndep, 0
	}
	a.succ = slices.Grow(a.succ[:0], len(a.deps))[:len(a.deps)]
	for i := range nodes {
		for _, d := range a.depsOf(&nodes[i]) {
			s := &nodes[d]
			a.succ[s.succ0+s.nsucc] = int32(i)
			s.nsucc++
		}
	}
	for i := range nodes {
		if nodes[i].waiting == 0 {
			a.enqueue(int32(i))
		}
	}

	for range nodes {
		q := a.next()
		start := q.cand.start
		var t int32
		if len(q.runnable) > 0 {
			t = q.runnable.pop(nodes, lessID)
		} else {
			t = q.waiting.pop(nodes, lessReady)
		}
		finish := p.place(t, start)
		n := &nodes[t]
		if n.res >= 0 {
			q.free = finish
			// The free advance may promote waiting tasks to runnable.
			for len(q.waiting) > 0 && nodes[q.waiting[0]].ready <= q.free {
				q.runnable.push(nodes, q.waiting.pop(nodes, lessReady), lessID)
			}
		}
		a.fix(q)

		for _, s := range a.succ[n.succ0 : n.succ0+n.nsucc] {
			sn := &nodes[s]
			if finish > sn.ready {
				sn.ready = finish
			}
			if sn.waiting--; sn.waiting == 0 {
				a.enqueue(s)
			}
		}
	}
	return p.end()
}
