package cluster

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/workload"
)

// refEvent is an event as the container/heap event loop held it: every
// arrival in the heap, numbered before anything else was pushed, and
// timeouts carrying their queue key by value.
type refEvent struct {
	at   float64
	kind int
	key  queueKey
	seq  int
	id   int // identity: the trace index of an arrival, else n + push ordinal
}

// refLess is the container/heap loop's Less.
func refLess(a, b refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.kind == evTimeout {
		if c := a.key.cmp(b.key); c != 0 {
			return c < 0
		}
	}
	return a.seq < b.seq
}

// The arrival cursor merged with the typed heap must pop exactly the order
// a single container/heap holding the arrivals popped: random traces and
// events on a coarse time grid (ties on time, on kind, and on timeout queue
// keys), with pushes interleaved between pops. The reference re-sorts its
// pending set with sort.SliceStable under the old Less before every pop.
func TestEventOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := []queueKey{
		{priority: 0, class: workload.Short},
		{priority: 0, class: workload.Medium},
		{priority: 1, class: workload.Short},
		{priority: 1, class: workload.Long},
	}
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(30)
		trace := make([]Request, n)
		for i := range trace {
			trace[i] = Request{ID: rng.Intn(1000), ArrivalSec: float64(rng.Intn(8))}
		}
		sort.SliceStable(trace, func(i, j int) bool {
			if trace[i].ArrivalSec != trace[j].ArrivalSec {
				return trace[i].ArrivalSec < trace[j].ArrivalSec
			}
			return trace[i].ID < trace[j].ID
		})
		queues := make([]*classQueue, len(keys))
		for i, k := range keys {
			queues[i] = &classQueue{key: k}
		}

		l := &eventLoop{trace: trace}
		var ref []refEvent
		for i, r := range trace {
			ref = append(ref, refEvent{at: r.ArrivalSec, kind: evArrival, seq: i, id: i})
		}
		pushed := 0
		push := func() {
			e := event{at: float64(rng.Intn(10)), kind: evTimeout + rng.Intn(evFree), idx: pushed}
			re := refEvent{at: e.at, kind: e.kind, seq: n + pushed, id: n + pushed}
			if e.kind == evTimeout || e.kind == evDeadline {
				e.q = queues[rng.Intn(len(queues))]
				re.key = e.q.key
			}
			l.push(e)
			ref = append(ref, re)
			pushed++
		}
		for k := rng.Intn(12); k > 0; k-- {
			push()
		}

		for step := 0; ; step++ {
			e, ok := l.nextEvent()
			if len(ref) == 0 {
				if ok {
					t.Fatalf("trial %d step %d: popped %+v after the reference drained", trial, step, e)
				}
				break
			}
			if !ok {
				t.Fatalf("trial %d step %d: drained with %d reference events left", trial, step, len(ref))
			}
			sort.SliceStable(ref, func(i, j int) bool { return refLess(ref[i], ref[j]) })
			want := ref[0]
			ref = ref[1:]
			got := e.idx
			if e.kind != evArrival {
				got += n
			}
			if got != want.id || e.at != want.at || e.kind != want.kind {
				t.Fatalf("trial %d step %d: popped id %d (at %g kind %d), reference id %d (at %g kind %d)",
					trial, step, got, e.at, e.kind, want.id, want.at, want.kind)
			}
			for k := rng.Intn(3); k > 0 && pushed < 60; k-- {
				push()
			}
		}
	}
}
