package sim

import (
	"slices"
	"sync"
)

// This file holds the engine's arena and Run, the event-driven replacement
// for the original O(n²) rescanning list scheduler, which the equivalence
// tests keep as their oracle. The policy is identical — among all ready tasks, run the one with the
// earliest possible start time, ties broken by creation id — but the ready
// set is maintained incrementally:
//
//   - dependency counting makes a task ready the moment its last dependency
//     finishes (its ready time is the running max of dependency finishes);
//   - each resource keeps two typed min-heaps of its ready tasks:
//     "waiting" holds (ready, id) entries whose ready time is still ahead
//     of the resource's free time, ordered by (ready, id); "runnable" holds
//     the ids startable the instant the resource frees, ordered by id
//     alone, since they all share start == free;
//   - each resource caches its best candidate (start, id), and the next
//     task is the earliest of those R candidates.
//
// Whenever a resource's free time advances, its waiting heap drains into
// runnable. All start/finish arithmetic matches the rescanning scheduler
// operation for operation, and both read the service times begin computed,
// so the two produce bit-identical Results.

// node is one task in the arena; its index is the task's id. It holds no
// pointers, so building and scheduling a graph pays no write barriers.
type node struct {
	demand float64
	// dur is the task's fixed latency while the graph is built; begin adds
	// its demand at its resource's rate, so during a pass it is the task's
	// service time.
	dur     Time
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
	succ   []int32  // successor lists in CSR form, built by Run
	labels []string // interned task labels
	sums   []Time   // per-label busy time, summed in schedule order
	queues []queue  // per resource, then the pure-latency pseudo-resource
}

var arenas = sync.Pool{New: func() any { return new(arena) }}

// intern returns label's index, registering it on first use. The engines
// use at most 7 labels, and comparing a few strings is cheaper than hashing
// one, so it finds them by a linear scan.
func (a *arena) intern(label string) int32 {
	for i, l := range a.labels {
		if l == label {
			return int32(i)
		}
	}
	a.labels = append(a.labels, label)
	a.sums = append(a.sums, 0)
	return int32(len(a.labels) - 1)
}

func (a *arena) depsOf(n *node) []int32 { return a.deps[n.dep0 : n.dep0+n.ndep] }

// queue is one resource's scheduling state. The pure-latency
// pseudo-resource contends with nothing: its free time stays 0, so its
// tasks start exactly at their ready time.
type queue struct {
	free     Time
	busy     Time
	waiting  readyHeap
	runnable idHeap
	cand     candidate // the queue's best offer, valid when ok
	ok       bool
}

// pass is one scheduling pass over an arena: the Result it fills in
// schedule order and the telemetry sink it reports to. Run and the test
// oracle differ only in how they pick the next task.
type pass struct {
	e   *Engine
	a   *arena
	tel *Telemetry
	res Result
}

// begin claims the engine's arena for its single scheduling pass and turns
// every task's fixed latency into its service time, fixed + demand/Rate.
func (e *Engine) begin() pass {
	a := e.live("Run")
	e.a = nil
	n := len(a.nodes)
	p := pass{e: e, a: a, tel: defaultTel.Load(), res: Result{eng: e.serial, spans: make([]span, n)}}
	if !e.noRecords {
		p.res.Tasks = make([]TaskRecord, 0, n)
	}
	for i := range a.nodes {
		if nd := &a.nodes[i]; nd.res >= 0 {
			nd.dur += nd.demand / e.resources[nd.res].Rate
		}
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
	a := p.a
	n := &a.nodes[t]
	dur := n.dur
	finish := start + dur
	p.res.spans[t] = span{start, finish}
	if n.res >= 0 {
		a.queues[n.res].busy += dur
	}
	a.sums[n.label] += dur
	if finish > p.res.Makespan {
		p.res.Makespan = finish
	}
	if p.e.noRecords && p.tel == nil {
		return finish
	}
	resName := ""
	if n.res >= 0 {
		resName = p.e.resources[n.res].Name
	}
	if !p.e.noRecords {
		p.res.Tasks = append(p.res.Tasks, TaskRecord{
			Label: a.labels[n.label], Resource: resName, Start: start, Finish: finish,
		})
	}
	if p.tel != nil {
		p.tel.observeTask(a.labels[n.label], resName, start, finish)
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
	a.nodes, a.deps, a.labels, a.sums = a.nodes[:0], a.deps[:0], a.labels[:0], a.sums[:0]
	arenas.Put(a)
	return p.res
}

// idHeap is a binary min-heap of task ids: the runnable heap, where every
// task would start at the resource's shared free time, so id alone orders
// it. Both heaps sift a hole instead of swapping.
type idHeap []int32

func (h *idHeap) push(t int32) {
	s := append(*h, t)
	i := len(s) - 1
	for i > 0 {
		up := (i - 1) / 2
		if s[up] <= t {
			break
		}
		s[i] = s[up]
		i = up
	}
	s[i] = t
	*h = s
}

func (h *idHeap) pop() int32 {
	s := *h
	top, n := s[0], len(s)-1
	x := s[n]
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r] < s[c] {
			c = r
		}
		if x <= s[c] {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = x
	return top
}

// readyEntry is a waiting task with its ready time, which is final once the
// task is enqueued.
type readyEntry struct {
	ready Time
	id    int32
}

// less orders by (ready, id): the waiting heap and the pure-latency
// pseudo-resource, whose tasks start exactly at their ready time.
func (x readyEntry) less(y readyEntry) bool {
	return x.ready < y.ready || (x.ready == y.ready && x.id < y.id)
}

// readyHeap is a binary min-heap of waiting tasks under readyEntry.less.
type readyHeap []readyEntry

func (h *readyHeap) push(x readyEntry) {
	s := append(*h, x)
	i := len(s) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !x.less(s[up]) {
			break
		}
		s[i] = s[up]
		i = up
	}
	s[i] = x
	*h = s
}

func (h *readyHeap) pop() readyEntry {
	s := *h
	top, n := s[0], len(s)-1
	x := s[n]
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r].less(s[c]) {
			c = r
		}
		if !s[c].less(x) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = x
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
func best(q *queue) (candidate, bool) {
	if len(q.runnable) > 0 {
		return candidate{start: q.free, id: q.runnable[0]}, true
	}
	if len(q.waiting) > 0 {
		return candidate{start: q.waiting[0].ready, id: q.waiting[0].id}, true
	}
	return candidate{}, false
}

// fix re-evaluates q's candidate after its heaps or free time changed.
func (q *queue) fix() { q.cand, q.ok = best(q) }

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
		q.runnable.push(t)
	} else {
		q.waiting.push(readyEntry{ready: n.ready, id: t})
	}
	q.fix()
}

// Run schedules every task and returns the simulation result. Run may be
// called once per Engine and returns the engine's arena to the pool, so
// Task after Run panics. It implements the same earliest-start policy as
// the original O(n²) rescanning scheduler (bit-identical Results) in
// O((n+m)·log n + n·R) for n tasks, m dependency edges and R resources.
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
			t = q.runnable.pop()
		} else {
			t = q.waiting.pop().id
		}
		finish := p.place(t, start)
		n := &nodes[t]
		if n.res >= 0 {
			q.free = finish
			// The free advance may promote waiting tasks to runnable.
			for len(q.waiting) > 0 && q.waiting[0].ready <= q.free {
				q.runnable.push(q.waiting.pop().id)
			}
		}
		q.fix()

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
