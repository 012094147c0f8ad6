package cluster

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/pipeline"
)

// refSched is a deliberately naive reference for Run's fault-free,
// telemetry-free schedule. It shares none of the event loop's machinery: no
// event heap, no arrival cursor, no queue objects, no report memo. At every
// step it rescans everything to find the next instant (the next arrival,
// queue wait deadlines, start deadlines under preemption, and pipeline free
// times under continuous batching), and at that instant it processes, in
// order:
//
//  1. arrivals, in (time, ID) order — each runs a dispatch pass in
//     continuous mode, since admitting a request may ripen its queue;
//  2. wait expiries, in queue-key order (close-at-admission);
//  3. start deadlines, in admission order (close-at-admission, preemption);
//  4. one dispatch pass (continuous mode).
//
// Queues are derived on demand from the admitted-but-waiting requests, which
// keeps the MaxBatch / MaxWaitSec batcher contract visible: a queue releases
// when it holds MaxBatch requests or its oldest member has waited
// MaxWaitSec.
type refSched struct {
	cfg Config
	now float64

	pending  []Request // not yet arrived, in no particular order
	waiting  []Request // admitted and not yet batched, in admission order
	slots    []*refSlot
	rejected []int

	preBatches, preJobs int
	preByPrio           map[int]int
}

// refSlot is one dispatch decision. Evicted slots stay in the list (they
// keep the dispatch order of the rest) but are not reported.
type refSlot struct {
	b             BatchJob
	rep           pipeline.Report
	exec          float64
	pipe          int
	reason        string
	start, finish float64
	evicted       bool
}

// runReference drains reqs through cfg.Fleet the slow way.
func runReference(cfg Config, reqs []Request) *refSched {
	r := &refSched{cfg: cfg, now: math.Inf(-1), pending: append([]Request(nil), reqs...), preByPrio: map[int]int{}}
	for {
		t := r.nextInstant()
		if math.IsInf(t, 1) {
			return r
		}
		r.now = t
		for {
			i := r.nextArrival()
			if i < 0 || r.pending[i].ArrivalSec != t {
				break
			}
			a := r.pending[i]
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			r.arrive(a)
		}
		if r.cfg.Admission.ContinuousBatching {
			r.dispatchPass()
			continue
		}
		for _, k := range r.queueKeys() {
			if q := r.queue(k); len(q) > 0 && q[0].ArrivalSec+r.cfg.Admission.MaxWaitSec <= t {
				r.closeQueue(k)
			}
		}
		if r.cfg.Admission.Preemption {
			for r.closeOnDeadline() {
			}
		}
	}
}

// nextArrival indexes the pending request that arrives first (ties: lowest
// ID), or -1.
func (r *refSched) nextArrival() int {
	best := -1
	for i, q := range r.pending {
		if best < 0 || q.ArrivalSec < r.pending[best].ArrivalSec ||
			q.ArrivalSec == r.pending[best].ArrivalSec && q.ID < r.pending[best].ID {
			best = i
		}
	}
	return best
}

// nextInstant is the earliest time after now at which anything can happen.
func (r *refSched) nextInstant() float64 {
	t := math.Inf(1)
	later := func(x float64) {
		if x > r.now && x < t {
			t = x
		}
	}
	for _, q := range r.pending {
		later(q.ArrivalSec)
	}
	for _, k := range r.queueKeys() {
		later(r.queue(k)[0].ArrivalSec + r.cfg.Admission.MaxWaitSec)
	}
	if r.cfg.Admission.Preemption {
		for _, q := range r.waiting {
			if q.DeadlineSec > 0 {
				later(q.ArrivalSec + q.DeadlineSec)
			}
		}
	}
	if r.cfg.Admission.ContinuousBatching {
		for _, s := range r.slots {
			if !s.evicted && s.pipe >= 0 {
				later(s.finish)
			}
		}
	}
	return t
}

// refKey is a queue: one priority class over one request shape.
type refKey struct {
	prio          int
	name          string
	input, output int
}

func keyOf(q Request) refKey {
	return refKey{q.Priority, q.Class.Name, q.Class.Input, q.Class.Output}
}

// keyLess is the scheduling order of queues: higher priority first, then
// class name, input and output.
func keyLess(a, b refKey) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	if a.name != b.name {
		return a.name < b.name
	}
	if a.input != b.input {
		return a.input < b.input
	}
	return a.output < b.output
}

// queueKeys lists the non-empty queues in key order.
func (r *refSched) queueKeys() []refKey {
	var keys []refKey
	seen := map[refKey]bool{}
	for _, q := range r.waiting {
		if k := keyOf(q); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	return keys
}

// queue returns the waiting members of queue k, oldest first.
func (r *refSched) queue(k refKey) []Request {
	var q []Request
	for _, w := range r.waiting {
		if keyOf(w) == k {
			q = append(q, w)
		}
	}
	return q
}

// take removes the n oldest members of queue k from the waiting list and
// returns them.
func (r *refSched) take(k refKey, n int) []Request {
	var taken, kept []Request
	for _, w := range r.waiting {
		if keyOf(w) == k && len(taken) < n {
			taken = append(taken, w)
		} else {
			kept = append(kept, w)
		}
	}
	r.waiting = kept
	return taken
}

func (r *refSched) arrive(q Request) {
	if limit := r.cfg.Admission.MaxBacklog; limit > 0 {
		minPrio := 0
		if r.cfg.Admission.Preemption {
			minPrio = q.Priority
		}
		if r.backlog(minPrio) >= limit {
			r.rejected = append(r.rejected, q.ID)
			return
		}
	}
	r.waiting = append(r.waiting, q)
	if r.cfg.Admission.ContinuousBatching {
		r.dispatchPass()
	} else if k := keyOf(q); len(r.queue(k)) >= r.cfg.Admission.MaxBatch {
		r.closeQueue(k)
	}
}

// backlog counts admitted jobs of priority ≥ minPrio that have not started.
func (r *refSched) backlog(minPrio int) int {
	n := 0
	for _, w := range r.waiting {
		if w.Priority >= minPrio {
			n++
		}
	}
	for _, s := range r.slots {
		if !s.evicted && s.pipe >= 0 && s.start > r.now && s.b.Priority >= minPrio {
			n += len(s.b.JobIDs)
		}
	}
	return n
}

// closeOnDeadline closes the queue of the first-admitted waiting request
// whose start deadline has come, reporting whether it found one.
func (r *refSched) closeOnDeadline() bool {
	for _, w := range r.waiting {
		if w.DeadlineSec > 0 && w.ArrivalSec+w.DeadlineSec <= r.now {
			r.closeQueue(keyOf(w))
			return true
		}
	}
	return false
}

func (r *refSched) closeQueue(k refKey) {
	members := r.take(k, len(r.waiting))
	r.place(r.batch(members), true)
}

func (r *refSched) batch(members []Request) BatchJob {
	b := BatchJob{
		Class: members[0].Class, Priority: members[0].Priority, ReleaseSec: r.now,
		JobIDs: make([]int, len(members)), Arrivals: make([]float64, len(members)), Deadlines: make([]float64, len(members)),
	}
	for i, m := range members {
		b.JobIDs[i], b.Arrivals[i] = m.ID, m.ArrivalSec
		if m.DeadlineSec > 0 {
			b.Deadlines[i] = m.ArrivalSec + m.DeadlineSec
		}
	}
	return b
}

// run simulates one batch shape on pipeline p's engine, uncached.
func (r *refSched) run(p int, b BatchJob, size int) pipeline.Report {
	return r.cfg.Fleet[p].Run(pipeline.Request{
		Model: r.cfg.Model, Batch: size, Context: b.Class.Input, OutputLen: b.Class.Output, NoTrace: true,
	})
}

func fits(rep pipeline.Report) bool { return !rep.OOM && rep.Batch >= 1 }

// execTime is n jobs' run time on pipeline p: full passes at the engine's
// effective batch plus the remainder as one tail run simulated at its own
// size (charged one full pass if the tail itself does not fit).
func (r *refSched) execTime(p int, b BatchJob) float64 {
	n := len(b.JobIDs)
	full := r.run(p, b, n)
	sec := float64(n/full.Batch) * full.TotalSec(b.Class.Output)
	if rem := n % full.Batch; rem > 0 {
		tail := r.run(p, b, rem)
		if fits(tail) {
			sec += float64((rem+tail.Batch-1)/tail.Batch) * tail.TotalSec(b.Class.Output)
		} else {
			sec += full.TotalSec(b.Class.Output)
		}
	}
	return sec
}

// onPipe lists pipeline p's live slots in execution order.
func (r *refSched) onPipe(p int) []*refSlot {
	var out []*refSlot
	for _, s := range r.slots {
		if s.pipe == p && !s.evicted {
			out = append(out, s)
		}
	}
	return out
}

// freeAt is when pipeline p finishes everything committed to it.
func (r *refSched) freeAt(p int) float64 {
	on := r.onPipe(p)
	if len(on) == 0 {
		return 0
	}
	return on[len(on)-1].finish
}

// refCandidate is one pipeline able to take a batch, with its policy keys.
type refCandidate struct {
	p           int
	start, exec float64
	key, tie    float64
	rep         pipeline.Report
}

// pick chooses a pipeline for b per the policy. idleOnly admits only
// pipelines free now. It returns -1 with ok == false when no pipeline fits
// the batch at all (reason says why), and -1 with ok == true when every
// fitting pipeline is busy.
func (r *refSched) pick(b BatchJob, idleOnly bool) (c refCandidate, ok bool, reason string) {
	var cands []refCandidate
	for p, pl := range r.cfg.Fleet {
		rep := r.run(p, b, len(b.JobIDs))
		if !fits(rep) {
			if reason == "" {
				reason = rep.Reason
			}
			continue
		}
		ok = true
		free := r.freeAt(p)
		if idleOnly && free > r.now {
			continue
		}
		start := b.ReleaseSec
		if free > start {
			start = free
		}
		exec := r.execTime(p, b)
		c := refCandidate{p: p, start: start, exec: exec, rep: rep}
		switch r.cfg.Policy {
		case LeastLoaded:
			c.key = free
		case CheapestFeasible:
			c.key, c.tie = pl.USDPerHour/3600*exec, free
		case FastestETA:
			c.key = start + exec
		}
		cands = append(cands, c)
	}
	if reason == "" {
		reason = "no feasible pipeline"
	}
	if len(cands) == 0 {
		return refCandidate{p: -1}, ok, reason
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].key != cands[j].key {
			return cands[i].key < cands[j].key
		}
		return cands[i].tie < cands[j].tie
	})
	return cands[0], true, ""
}

func (r *refSched) commit(b BatchJob, c refCandidate) {
	r.slots = append(r.slots, &refSlot{b: b, rep: c.rep, exec: c.exec, pipe: c.p, start: c.start, finish: c.start + c.exec})
}

func (r *refSched) fail(b BatchJob, reason string) {
	r.slots = append(r.slots, &refSlot{b: b, pipe: -1, reason: reason})
}

// place dispatches a closed batch. Under preemption, a batch that would
// start after its earliest member deadline may instead take the pipeline
// where it starts soonest once every strictly-lower-priority unstarted
// batch there is evicted; evictees are re-placed without that escalation.
func (r *refSched) place(b BatchJob, mayPreempt bool) {
	c, _, reason := r.pick(b, false)
	if c.p < 0 {
		r.fail(b, reason)
		return
	}
	if mayPreempt && r.cfg.Admission.Preemption {
		earliest := math.Inf(1)
		for _, d := range b.Deadlines {
			if d > 0 && d < earliest {
				earliest = d
			}
		}
		if earliest < c.start {
			if p, at := r.preemptTarget(b); p >= 0 && at < c.start {
				r.preemptOnto(p, b)
				return
			}
		}
	}
	r.commit(b, c)
}

// preemptTarget returns the fitting pipeline where b would start earliest
// if its strictly-lower-priority unstarted slots were evicted.
func (r *refSched) preemptTarget(b BatchJob) (best int, bestAt float64) {
	best, bestAt = -1, math.Inf(1)
	for p := range r.cfg.Fleet {
		if !fits(r.run(p, b, len(b.JobIDs))) {
			continue
		}
		end := 0.0
		for _, s := range r.onPipe(p) {
			if s.start <= r.now {
				end = s.finish
			} else if s.b.Priority >= b.Priority {
				end = math.Max(s.b.ReleaseSec, end) + s.exec
			}
		}
		if at := math.Max(b.ReleaseSec, end); at < bestAt {
			best, bestAt = p, at
		}
	}
	return best, bestAt
}

func (r *refSched) preemptOnto(p int, b BatchJob) {
	var evicted []*refSlot
	end := 0.0
	for _, s := range r.onPipe(p) {
		switch {
		case s.start <= r.now:
			end = s.finish
		case s.b.Priority < b.Priority:
			s.evicted = true
			evicted = append(evicted, s)
		default:
			s.start = math.Max(s.b.ReleaseSec, end)
			s.finish = s.start + s.exec
			end = s.finish
		}
	}
	exec := r.execTime(p, b)
	start := math.Max(b.ReleaseSec, end)
	r.commit(b, refCandidate{p: p, start: start, exec: exec, rep: r.run(p, b, len(b.JobIDs))})
	for _, s := range evicted {
		r.preBatches++
		r.preJobs += len(s.b.JobIDs)
		r.preByPrio[s.b.Priority] += len(s.b.JobIDs)
	}
	for _, s := range evicted {
		nb := s.b
		nb.ReleaseSec = r.now
		r.place(nb, false)
	}
}

// dispatchPass is continuous batching: while some ripe queue can start on
// an idle pipeline (or can never start anywhere, and fails), re-pack up to
// MaxBatch of its oldest requests and start them now. Ripe queues are tried
// by priority, then oldest head, then key order.
func (r *refSched) dispatchPass() {
	adm := r.cfg.Admission
	for progressed := true; progressed; {
		progressed = false
		var ripe []refKey
		for _, k := range r.queueKeys() {
			q := r.queue(k)
			due := q[0].ArrivalSec+adm.MaxWaitSec <= r.now
			for _, w := range q {
				if adm.Preemption && w.DeadlineSec > 0 && w.ArrivalSec+w.DeadlineSec <= r.now {
					due = true
				}
			}
			if len(q) >= adm.MaxBatch || due {
				ripe = append(ripe, k)
			}
		}
		sort.SliceStable(ripe, func(i, j int) bool {
			if ripe[i].prio != ripe[j].prio {
				return ripe[i].prio > ripe[j].prio
			}
			return r.queue(ripe[i])[0].ArrivalSec < r.queue(ripe[j])[0].ArrivalSec
		})
		for _, k := range ripe {
			n := min(len(r.queue(k)), adm.MaxBatch)
			probe := r.batch(r.queue(k)[:n])
			c, ok, reason := r.pick(probe, true)
			if c.p < 0 && ok {
				continue
			}
			b := r.batch(r.take(k, n))
			if c.p < 0 {
				r.fail(b, reason)
			} else {
				r.commit(b, c)
			}
			progressed = true
			break
		}
	}
}

// assignments renders the reference schedule the way Summary reports it.
func (r *refSched) assignments() []Assignment {
	var out []Assignment
	for _, s := range r.slots {
		if s.evicted {
			continue
		}
		out = append(out, Assignment{
			Batch: s.b, Pipeline: s.pipe, Reason: s.reason,
			StartSec: s.start, FinishSec: s.finish, Report: s.rep,
		})
	}
	return out
}

// referenceFleet mixes speeds and prices on the 0.25 s grid of digestTrace,
// so completions land on arrival, timeout and deadline instants. "small"
// runs out of memory above two requests or on long contexts (the latter
// with no reason given), and "shrink" fits at most two requests per pass at
// a per-request cost, so n%2 tails run as their own cheaper pass.
func referenceFleet() []Pipeline {
	small := func(req pipeline.Request) pipeline.Report {
		switch {
		case req.Context > 4096:
			return pipeline.Report{OOM: true}
		case req.Batch > 2:
			return pipeline.Report{OOM: true, Reason: fmt.Sprintf("batch %d does not fit", req.Batch)}
		}
		return pipeline.Report{Batch: req.Batch, PrefillSec: 3}
	}
	shrink := func(req pipeline.Request) pipeline.Report {
		b := min(req.Batch, 2)
		return pipeline.Report{Batch: b, PrefillSec: 0.5 * float64(b) * float64(1+req.Context/1024)}
	}
	return []Pipeline{
		{Name: "fast", Run: constEngine(2), USDPerHour: 7.2},
		{Name: "slow", Run: constEngine(5), USDPerHour: 1.8},
		{Name: "small", Run: small},
		{Name: "shrink", Run: shrink, USDPerHour: 1.8},
	}
}

// FuzzEventLoopMatchesReference checks Run against the naive reference
// scheduler, bit for bit, across close-at-admission and continuous
// batching, preemption on and off, every policy, backlog caps on and off,
// and subsets of a mixed fleet: the same assignments in the same dispatch
// order, the same rejections, and the same preemption counts. Everything
// else in the Summary is a fold of these.
func FuzzEventLoopMatchesReference(f *testing.F) {
	f.Add(int64(1), 40, 4, 12, 0, 0b1111_00_00)
	f.Add(int64(2), 60, 3, 0, 12, 0b1111_01_01)
	f.Add(int64(3), 60, 4, 8, 0, 0b1011_10_10)
	f.Add(int64(4), 80, 5, 4, 16, 0b1111_00_11)
	f.Add(int64(5), 30, 2, 0, 0, 0b0100_01_00)
	f.Fuzz(func(t *testing.T, seed int64, n, maxBatch, waitQuarters, backlog, flags int) {
		n = 1 + mod(n, 120)
		maxBatch = 1 + mod(maxBatch, 6)
		backlog = mod(backlog, 33)
		pool := referenceFleet()
		var fleet []Pipeline
		for i, p := range pool {
			if flags>>(4+i)&1 != 0 {
				fleet = append(fleet, p)
			}
		}
		if len(fleet) == 0 {
			fleet = pool
		}
		cfg := Config{
			Model:  model.OPT30B,
			Fleet:  fleet,
			Policy: Policies()[mod(flags>>2, 3)],
			Admission: Admission{
				MaxBatch:           maxBatch,
				MaxWaitSec:         float64(mod(waitQuarters, 41)) * 0.25,
				MaxBacklog:         backlog,
				Preemption:         flags&1 != 0,
				ContinuousBatching: flags&2 != 0,
			},
		}
		reqs := digestTrace(seed, n)
		s, err := Run(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		ref := runReference(cfg, reqs)

		want := ref.assignments()
		for i := range max(len(want), len(s.Assignments)) {
			if i >= len(want) || i >= len(s.Assignments) || !reflect.DeepEqual(s.Assignments[i], want[i]) {
				t.Fatalf("%+v: assignment %d of %d/%d differs\nRun:       %s\nreference: %s",
					cfg.Admission, i, len(s.Assignments), len(want), asgAt(s.Assignments, i), asgAt(want, i))
			}
		}
		sort.Ints(ref.rejected)
		if !reflect.DeepEqual(s.RejectedJobIDs, ref.rejected) {
			t.Fatalf("rejected %v, reference %v", s.RejectedJobIDs, ref.rejected)
		}
		if s.PreemptedBatches != ref.preBatches || s.PreemptedJobs != ref.preJobs {
			t.Fatalf("preempted %d batches / %d jobs, reference %d / %d",
				s.PreemptedBatches, s.PreemptedJobs, ref.preBatches, ref.preJobs)
		}
		for _, ps := range s.PerPriority {
			if ps.PreemptedJobs != ref.preByPrio[ps.Priority] {
				t.Fatalf("priority %d preempted %d jobs, reference %d", ps.Priority, ps.PreemptedJobs, ref.preByPrio[ps.Priority])
			}
		}
	})
}

// mod folds a fuzzed int into [0, k).
func mod(x, k int) int { return (x%k + k) % k }

// asgAt summarizes asgs[i] for a mismatch report.
func asgAt(asgs []Assignment, i int) string {
	if i >= len(asgs) {
		return "(none)"
	}
	a := asgs[i]
	return fmt.Sprintf("pipe %d [%g, %g] %q prio %d release %g jobs %v",
		a.Pipeline, a.StartSec, a.FinishSec, a.Reason, a.Batch.Priority, a.Batch.ReleaseSec, a.Batch.JobIDs)
}
