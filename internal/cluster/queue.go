package cluster

import (
	"cmp"
	"math"
	"strings"

	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// queueKey identifies one admission queue: a priority class over one request
// shape. Queues key on the full class shape, not just the name, because a
// replayed trace may reuse one label for different request shapes, and
// merging those into one batch would simulate them at the wrong shape.
type queueKey struct {
	priority int
	class    workload.Class
}

// cmp orders keys for deterministic scheduling: higher priority first, then
// class name, then shape. With a single priority class this degenerates to
// the pre-priority ordering (name, input, output).
func (k queueKey) cmp(o queueKey) int {
	return cmp.Or(
		cmp.Compare(o.priority, k.priority),
		strings.Compare(k.class.Name, o.class.Name),
		cmp.Compare(k.class.Input, o.class.Input),
		cmp.Compare(k.class.Output, o.class.Output),
	)
}

// keyState is one distinct queue key of a trace: the key's queue, nil until
// its first admitted arrival (a key whose every request the backlog cap
// rejects never gets one), and how many of the trace's requests carry the
// key and how many of those were rejected.
type keyState struct {
	key      queueKey
	q        *classQueue
	requests int
	rejected int
}

// scanKeys is how many distinct keys internKeys finds by a linear scan
// before it builds a map: comparing a few keys is cheaper than hashing the
// class name, and the map keeps a trace with many shapes linear.
const scanKeys = 8

// internKeys returns trace's distinct queue keys in first-arrival order,
// each with its request count, and the index in keys of each request's key.
// It is the one place a request's key is looked up.
func internKeys(trace []Request) (keys []keyState, keyOf []int32) {
	var index map[queueKey]int32 // nil until keys outgrows a scan
	keyOf = make([]int32, len(trace))
	for i := range trace {
		k := queueKey{priority: trace[i].Priority, class: trace[i].Class}
		ki := findKey(keys, index, k)
		if ki < 0 {
			ki = int32(len(keys))
			keys = append(keys, keyState{key: k})
			if len(keys) > scanKeys {
				if index == nil {
					index = make(map[queueKey]int32, len(keys))
					for j := range keys[:ki] {
						index[keys[j].key] = int32(j)
					}
				}
				index[k] = ki
			}
		}
		keys[ki].requests++
		keyOf[i] = ki
	}
	return keys, keyOf
}

// findKey returns k's index in keys, or -1: through index when there is
// one, else by scanning.
func findKey(keys []keyState, index map[queueKey]int32, k queueKey) int32 {
	if index != nil {
		if ki, ok := index[k]; ok {
			return ki
		}
		return -1
	}
	for j := range keys {
		if keys[j].key == k {
			return int32(j)
		}
	}
	return -1
}

// classQueue is one per-priority-per-shape admission queue, FIFO in arrival
// order and consumed from the head. It holds indices into the event loop's
// sorted trace rather than request copies, so its buffer is pointer-free
// and an eighth the size. table is the reports of the queue's shape, looked
// up once when the queue is created. taken counts every request ever
// removed, so a request admitted at position pos (taken + len(reqs) when it
// joined) is still waiting exactly while pos ≥ taken.
type classQueue struct {
	key   queueKey
	table *reportTable
	depth *telemetry.Gauge // nil without telemetry
	reqs  []int
	taken int
}

// take removes the n oldest requests by reslicing; a drained queue rewinds
// onto its buffer (batches copy what they need out of reqs).
func (q *classQueue) take(n int) {
	q.taken += n
	if n == len(q.reqs) {
		q.reqs = q.reqs[:0]
		return
	}
	q.reqs = q.reqs[n:]
}

// waitDeadline is when the oldest member's max-wait timeout fires; trace is
// the trace q indexes.
func (q *classQueue) waitDeadline(trace []Request, maxWait float64) float64 {
	return trace[q.reqs[0]].ArrivalSec + maxWait
}

// minStartDeadline is the earliest absolute start deadline among queued
// members, or +Inf when none carries one.
func (q *classQueue) minStartDeadline(trace []Request) float64 {
	min := math.Inf(1)
	for _, i := range q.reqs {
		if d := trace[i].StartDeadline(); d < min {
			min = d
		}
	}
	return min
}

// Event kinds, in pop order at equal timestamps. Arrivals precede timeouts
// so a request arriving at a queue's exact wait deadline still joins its
// batch (the pre-event-loop admission semantics); deadline events follow.
// The fault-machinery kinds (all absent without an injector) order so that
// at one instant a batch finishing exactly when a fault fires still
// completes (done before fault), a repair precedes any retry armed for the
// repair instant (the retried batch sees the pipeline healthy), and
// pipeline-free dispatch runs last, over settled health state.
const (
	evArrival = iota
	evTimeout
	evDeadline
	evDone   // a committed slot reaches its finish (armed only with faults)
	evFault  // an injected fail-stop or wear-out fires
	evRepair // a pipeline re-admits (repair window or quarantine expiry)
	evRetry  // a failed batch's backoff expired: re-place it
	evFree
)

// event is one step of the simulated clock. It holds only scalars and
// pointers, so sifting it through the heap moves a few words. Arrivals are
// read off the sorted trace and never enter the heap (see
// eventLoop.nextEvent).
type event struct {
	at   float64
	kind int
	seq  int     // creation order: the final deterministic tie-break
	dl   float64 // evTimeout/evDone: the deadline/finish the event was armed for
	// idx is the trace index (evArrival), the request's admission position
	// in q (evDeadline), the generation of s it was armed at (evDone) or the
	// pipeline (evRepair).
	idx int
	q   *classQueue // evTimeout, evDeadline
	// s is the slot whose finish an evDone narrates. Slots are recycled, so
	// s may hold another batch by the time the event fires; its generation
	// then differs from idx.
	s     *slot
	b     *BatchJob     // evRetry: the batch to re-place
	fault *faults.Event // evFault
}

// lessEvent orders events by (time, kind, queue order, sequence).
func lessEvent(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.kind == evTimeout {
		// Simultaneous timeouts fire in queue key order.
		if c := a.q.key.cmp(b.q.key); c != 0 {
			return c < 0
		}
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap under lessEvent. seq makes every key
// distinct, so the pop order is a total order independent of the layout.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for ; i > 0 && lessEvent(&e, &s[(i-1)/2]); i = (i - 1) / 2 {
		s[i] = s[(i-1)/2]
	}
	s[i] = e
}

func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	top, last := s[0], s[n]
	s[n] = event{} // drop the pointers the vacated slot still holds
	s = s[:n]
	*h = s
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && lessEvent(&s[c+1], &s[c]) {
			c++
		}
		if !lessEvent(&s[c], &last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	if n > 0 {
		s[i] = last
	}
	return top
}
