package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/pipeline"
)

// refSched is a deliberately naive reference for Run's telemetry-free
// schedule, faults included. It shares none of the event loop's machinery:
// no event heap, no arrival cursor, no queue objects, no report memo, no
// pipeline chains or clocks. Its only input besides the Config is its own
// fault injector, built from the same plan as Run's, which it consults the
// way the loop does: BatchFails once per committed attempt, in dispatch
// order, and SlowFactor at each placement's start.
//
// At every step it rescans everything to find the next instant (arrivals,
// queue wait and start deadlines, attempt finishes, fail-stops,
// re-admissions, armed retries), and at that instant it processes, in
// order:
//
//  1. arrivals, in (time, ID) order — each runs a dispatch pass in
//     continuous mode, since admitting a request may ripen its queue;
//  2. close-at-admission: wait expiries in queue-key order, then start
//     deadlines in admission order (preemption); continuous: one dispatch
//     pass if a queue head's wait or a waiting member's start deadline
//     (preemption) expires exactly now;
//  3. finishes: each attempt ending now settles (wear, transient fate) in
//     the order its finish was last scheduled;
//  4. faults: the fail-stops scheduled now, in schedule order;
//  5. repairs: pipelines whose downtime and quarantine both end now are
//     re-admitted (one dispatch pass, continuous mode);
//  6. retries: the re-dispatches armed for now, in arming order;
//  7. pipeline-free (continuous mode): one dispatch pass if an attempt was
//     committed to finish now, even one a fault since cut short.
//
// So at one instant: done < fault < repair < retry < free.
//
// Queues are derived on demand from the admitted-but-waiting requests, which
// keeps the MaxBatch / MaxWaitSec batcher contract visible: a queue releases
// when it holds MaxBatch requests or its oldest member has waited
// MaxWaitSec.
type refSched struct {
	cfg Config
	inj *faults.Injector
	now float64

	pending  []Request // not yet arrived, in no particular order
	waiting  []Request // admitted and not yet batched, in admission order
	slots    []*refSlot
	rejected []int
	health   []refHealth
	retries  []refRetry // armed re-dispatches, in arming order
	parked   []BatchJob // continuous mode: recovered work waiting for an idle pipeline
	stamps   int        // scheduling counter: orders finishes armed for one instant

	counts    refCounts
	preByPrio map[int]int
}

// refSlot is one dispatch decision. An evicted slot leaves the list, which
// keeps the rest in dispatch order.
type refSlot struct {
	b             BatchJob
	rep           pipeline.Report
	exec          float64
	pipe          int
	reason        string
	start, finish float64

	planned   float64 // finish as committed: the pipeline-free instant
	stamp     int     // when finish was last scheduled
	transient bool    // the attempt's drawn fate
	settled   bool    // finished, or killed
	aborted   bool
	writeFrac float64 // share of the attempt's flash writes performed
}

// refHealth is one pipeline's fault state. Out-of-service windows start at
// -Inf, so a pipeline that never failed is never re-admitted.
type refHealth struct {
	downUntil, quarUntil float64 // +Inf downUntil: worn out
	fails                int     // consecutive failed attempts
	written, budget      float64
	exhausted            bool
}

// refRetry is a batch armed to re-enter dispatch at a given instant.
type refRetry struct {
	at float64
	b  BatchJob
}

// refCounts is the part of the Summary that counts recovery and preemption
// events rather than folding assignments.
type refCounts struct {
	PreemptedBatches, PreemptedJobs   int
	RetriedBatches, RetriedJobs       int
	FailedOverBatches, FailedOverJobs int
	DegradedBatches, DegradedJobs     int
	Faults, Quarantines               []int
}

// runReference drains reqs through cfg.Fleet the slow way; inj must be a
// fresh injector built from the plan behind cfg.Faults.
func runReference(cfg Config, inj *faults.Injector, reqs []Request) *refSched {
	n := len(cfg.Fleet)
	r := &refSched{
		cfg: cfg, inj: inj, now: math.Inf(-1),
		pending:   append([]Request(nil), reqs...),
		health:    make([]refHealth, n),
		counts:    refCounts{Faults: make([]int, n), Quarantines: make([]int, n)},
		preByPrio: map[int]int{},
	}
	for p := range r.health {
		r.health[p] = refHealth{downUntil: math.Inf(-1), quarUntil: math.Inf(-1), budget: inj.WearBudgetBytes(p)}
	}
	adm := cfg.Admission
	for {
		t := r.nextInstant()
		if math.IsInf(t, 1) {
			break
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
		if adm.ContinuousBatching {
			if r.timerExpires() {
				r.dispatchPass()
			}
		} else {
			for _, k := range r.queueKeys() {
				if q := r.queue(k); len(q) > 0 && q[0].ArrivalSec+adm.MaxWaitSec <= t {
					r.closeQueue(k)
				}
			}
			if adm.Preemption {
				for r.closeOnDeadline() {
				}
			}
		}
		for s := r.nextFinish(); s != nil; s = r.nextFinish() {
			r.finishAttempt(s)
		}
		for _, fe := range inj.FailStops() {
			if fe.AtSec == t {
				r.fault(fe.Pipeline, fe.Kind, fe.DurationSec)
			}
		}
		back := false
		for p := range r.health {
			if h := &r.health[p]; max(h.downUntil, h.quarUntil) == t {
				h.fails = 0
				back = true
			}
		}
		if back && adm.ContinuousBatching {
			r.dispatchPass()
		}
		for i := r.dueRetry(); i >= 0; i = r.dueRetry() {
			b := r.retries[i].b
			r.retries = append(r.retries[:i], r.retries[i+1:]...)
			r.recover(b)
		}
		if adm.ContinuousBatching && r.plannedFree() {
			r.dispatchPass()
		}
	}
	for _, b := range r.parked {
		r.fail(b, "no healthy pipeline before trace end")
	}
	return r
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
	for _, s := range r.slots {
		if s.pipe >= 0 {
			later(s.finish)
			later(s.planned)
		}
	}
	for _, fe := range r.inj.FailStops() {
		later(fe.AtSec)
	}
	for _, h := range r.health {
		later(max(h.downUntil, h.quarUntil))
	}
	for _, rt := range r.retries {
		later(rt.at)
	}
	return t
}

// timerExpires reports whether a queue head's wait, or (preemption) a
// waiting member's start deadline, expires exactly now.
func (r *refSched) timerExpires() bool {
	for _, k := range r.queueKeys() {
		if r.queue(k)[0].ArrivalSec+r.cfg.Admission.MaxWaitSec == r.now {
			return true
		}
	}
	for _, w := range r.waiting {
		if r.cfg.Admission.Preemption && w.DeadlineSec > 0 && w.ArrivalSec+w.DeadlineSec == r.now {
			return true
		}
	}
	return false
}

// nextFinish returns the unsettled attempt ending now whose finish was
// scheduled first, or nil.
func (r *refSched) nextFinish() *refSlot {
	var next *refSlot
	for _, s := range r.slots {
		if s.pipe >= 0 && !s.settled && s.finish == r.now && (next == nil || s.stamp < next.stamp) {
			next = s
		}
	}
	return next
}

// dueRetry indexes the first retry armed for now, or -1.
func (r *refSched) dueRetry() int {
	for i, rt := range r.retries {
		if rt.at == r.now {
			return i
		}
	}
	return -1
}

// plannedFree reports whether some attempt was committed to finish now.
func (r *refSched) plannedFree() bool {
	for _, s := range r.slots {
		if s.pipe >= 0 && s.planned == r.now {
			return true
		}
	}
	return false
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
// Recovered work awaiting its retry or a healthy pipeline is not counted.
func (r *refSched) backlog(minPrio int) int {
	n := 0
	for _, w := range r.waiting {
		if w.Priority >= minPrio {
			n++
		}
	}
	for _, s := range r.slots {
		if s.pipe >= 0 && s.start > r.now && s.b.Priority >= minPrio {
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

// execTime is n jobs' run time on pipeline p at native speed: full passes
// at the engine's effective batch plus the remainder as one tail run
// simulated at its own size (charged one full pass if the tail itself does
// not fit).
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

// evict removes a slot from the schedule.
func (r *refSched) evict(s *refSlot) {
	r.slots = slices.DeleteFunc(r.slots, func(x *refSlot) bool { return x == s })
}

// onPipe lists pipeline p's slots in execution order.
func (r *refSched) onPipe(p int) []*refSlot {
	var out []*refSlot
	for _, s := range r.slots {
		if s.pipe == p {
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

// avail is when pipeline p next accepts work: +Inf once worn out.
func (r *refSched) avail(p int) float64 {
	return max(r.health[p].downUntil, r.health[p].quarUntil)
}

// refCandidate is one pipeline able to take a batch, with its policy keys.
type refCandidate struct {
	p           int
	start, exec float64
	key, tie    float64
	rep         pipeline.Report
	degraded    bool
}

// pick chooses a pipeline for b per the policy among those in service now;
// idleOnly admits only pipelines free now. With no pick (p == -1), feasible
// says whether a pipeline that is not worn out fits the batch at all (one
// that is down, quarantined or busy counts), nextAvail is the earliest
// re-admission among the fitting ones out of service, and reason says why
// the batch cannot be placed. A pick is degraded when it lands on a lossy
// pipeline while no exact one is in service and some exact one that fits
// is out of service or worn out.
func (r *refSched) pick(b BatchJob, idleOnly bool) (c refCandidate, feasible bool, nextAvail float64, reason string) {
	var cands []refCandidate
	var dead string
	exactIn, exactOut := false, false
	nextAvail = math.Inf(1)
	for p, pl := range r.cfg.Fleet {
		rep := r.run(p, b, len(b.JobIDs))
		if !fits(rep) {
			if reason == "" {
				reason = rep.Reason
			}
			continue
		}
		if at := r.avail(p); at > r.now {
			exactOut = exactOut || !pl.Lossy
			if math.IsInf(at, 1) {
				if dead == "" {
					dead = fmt.Sprintf("pipeline %s permanently failed", pl.Name)
				}
			} else {
				feasible = true
				nextAvail = min(nextAvail, at)
			}
			continue
		}
		feasible = true
		free := r.freeAt(p)
		if idleOnly && free > r.now {
			continue
		}
		exactIn = exactIn || !pl.Lossy
		start := max(b.ReleaseSec, free)
		exec := r.execTime(p, b) * r.inj.SlowFactor(p, start)
		c := refCandidate{p: p, start: start, exec: exec, rep: rep, degraded: pl.Lossy}
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
		reason = dead
	}
	if reason == "" {
		reason = "no feasible pipeline"
	}
	if len(cands) == 0 {
		return refCandidate{p: -1}, feasible, nextAvail, reason
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].key != cands[j].key {
			return cands[i].key < cands[j].key
		}
		return cands[i].tie < cands[j].tie
	})
	c = cands[0]
	c.degraded = c.degraded && !exactIn && exactOut
	return c, true, nextAvail, ""
}

// commit appends an attempt and draws its transient fate.
func (r *refSched) commit(b BatchJob, c refCandidate) {
	r.stamps++
	r.slots = append(r.slots, &refSlot{
		b: b, rep: c.rep, exec: c.exec, pipe: c.p, start: c.start, finish: c.start + c.exec,
		planned: c.start + c.exec, stamp: r.stamps, transient: r.inj.BatchFails(c.p), writeFrac: 1,
	})
	if c.degraded {
		r.counts.DegradedBatches++
		r.counts.DegradedJobs += len(b.JobIDs)
	}
}

func (r *refSched) fail(b BatchJob, reason string) {
	r.slots = append(r.slots, &refSlot{b: b, pipe: -1, reason: reason})
}

// place dispatches a closed batch. When every pipeline that fits it is out
// of service, it waits for the earliest re-admission; it fails only when
// none ever can take it. Under preemption, a batch that would start after
// its earliest member deadline may instead take the pipeline where it
// starts soonest once every strictly-lower-priority unstarted batch there
// is evicted; evictees are re-placed without that escalation.
func (r *refSched) place(b BatchJob, mayPreempt bool) {
	c, feasible, nextAvail, reason := r.pick(b, false)
	if c.p < 0 {
		if feasible {
			r.retries = append(r.retries, refRetry{at: nextAvail, b: b})
		} else {
			r.fail(b, reason)
		}
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

// preemptTarget returns the fitting in-service pipeline where b would start
// earliest if its strictly-lower-priority unstarted slots were evicted.
func (r *refSched) preemptTarget(b BatchJob) (best int, bestAt float64) {
	best, bestAt = -1, math.Inf(1)
	for p := range r.cfg.Fleet {
		if !fits(r.run(p, b, len(b.JobIDs))) || r.avail(p) > r.now {
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

// preemptOnto evicts p's strictly-lower-priority unstarted slots, moves the
// survivors up (a moved finish is scheduled anew; run times keep the
// straggler factor of the original start), appends b, and re-dispatches the
// evictees now.
func (r *refSched) preemptOnto(p int, b BatchJob) {
	var evicted []*refSlot
	end := 0.0
	for _, s := range r.onPipe(p) {
		switch {
		case s.start <= r.now:
			end = s.finish
		case s.b.Priority < b.Priority:
			r.evict(s)
			evicted = append(evicted, s)
		default:
			old := s.finish
			s.start = math.Max(s.b.ReleaseSec, end)
			s.finish = s.start + s.exec
			if s.finish != old {
				r.stamps++
				s.stamp = r.stamps
			}
			end = s.finish
		}
	}
	start := math.Max(b.ReleaseSec, end)
	exec := r.execTime(p, b) * r.inj.SlowFactor(p, start)
	r.commit(b, refCandidate{p: p, start: start, exec: exec, rep: r.run(p, b, len(b.JobIDs))})
	for _, s := range evicted {
		r.counts.PreemptedBatches++
		r.counts.PreemptedJobs += len(s.b.JobIDs)
		r.preByPrio[s.b.Priority] += len(s.b.JobIDs)
	}
	for _, s := range evicted {
		r.recover(s.b)
	}
}

// recover re-releases recovered work now: close-at-admission re-places it
// at once, continuous mode parks it ahead of the queues.
func (r *refSched) recover(b BatchJob) {
	b.ReleaseSec = max(b.ReleaseSec, r.now)
	if r.cfg.Admission.ContinuousBatching {
		r.parked = append(r.parked, b)
		r.dispatchPass()
		return
	}
	r.place(b, false)
}

// charge adds bytes to pipeline p's flash writes, reporting whether they
// just used up its wear budget.
func (r *refSched) charge(p int, bytes float64) bool {
	h := &r.health[p]
	h.written += bytes
	if h.budget > 0 && !h.exhausted && h.written >= h.budget {
		h.exhausted = true
		return true
	}
	return false
}

// finishAttempt settles an attempt at its finish: its full writes count
// toward wear (crossing the budget retires the pipeline), then a transient
// fate aborts it and trips the breaker; a clean finish resets the breaker.
func (r *refSched) finishAttempt(s *refSlot) {
	s.settled = true
	if r.charge(s.pipe, batchWriteBytes(&s.rep, &s.b)) {
		r.fault(s.pipe, faults.WearOut, 0)
	}
	if !s.transient {
		r.health[s.pipe].fails = 0
		return
	}
	s.aborted, s.reason = true, "transient batch error"
	r.noteFailure(s.pipe)
	r.failAttempt(s.b, "transient batch error")
}

// fault takes pipeline p out of service: for good on wear-out, else for
// dur unless it is down already. The running attempt dies now with its
// writes prorated by the share of its run time spent (enough to wear the
// pipeline out for good), and its unstarted work fails over.
func (r *refSched) fault(p int, kind faults.Kind, dur float64) {
	h := &r.health[p]
	switch {
	case math.IsInf(h.downUntil, 1):
		return
	case kind == faults.WearOut:
		h.downUntil = math.Inf(1)
	case h.downUntil > r.now:
		return
	default:
		h.downUntil = r.now + dur
	}
	r.counts.Faults[p]++
	for _, s := range r.onPipe(p) {
		if s.start > r.now || s.finish <= r.now {
			continue
		}
		frac := 0.0
		if s.finish > s.start {
			frac = (r.now - s.start) / (s.finish - s.start)
		}
		s.settled, s.aborted, s.writeFrac = true, true, frac
		s.finish, s.reason = r.now, "killed by "+string(kind)
		if r.charge(p, frac*batchWriteBytes(&s.rep, &s.b)) {
			h.downUntil = math.Inf(1)
		}
		r.failAttempt(s.b, "killed by "+string(kind))
	}
	r.failOver(p)
}

// noteFailure counts a failed attempt on p; the FailureThreshold-th in a
// row quarantines an in-service pipeline for a nonzero QuarantineSec and
// fails its unstarted work over.
func (r *refSched) noteFailure(p int) {
	h := &r.health[p]
	h.fails++
	if th := r.cfg.Retry.FailureThreshold; th <= 0 || r.cfg.Retry.QuarantineSec == 0 || h.fails < th || r.avail(p) > r.now {
		return
	}
	h.fails = 0
	h.quarUntil = r.now + r.cfg.Retry.QuarantineSec
	r.counts.Quarantines[p]++
	r.failOver(p)
}

// failOver evicts p's unstarted slots and re-dispatches them now.
func (r *refSched) failOver(p int) {
	var moved []BatchJob
	for _, s := range r.onPipe(p) {
		if s.start > r.now {
			r.evict(s)
			moved = append(moved, s.b)
			r.counts.FailedOverBatches++
			r.counts.FailedOverJobs += len(s.b.JobIDs)
		}
	}
	for _, b := range moved {
		r.recover(b)
	}
}

// failAttempt retries a failed attempt after BackoffSec doubled once per
// earlier retry (capped), or fails the batch once MaxRetries is spent.
func (r *refSched) failAttempt(b BatchJob, reason string) {
	rp := r.cfg.Retry
	if b.Attempt >= rp.MaxRetries {
		r.fail(b, reason+" (retries exhausted)")
		return
	}
	b.Attempt++
	wait := rp.BackoffSec
	for range b.Attempt - 1 {
		wait *= 2
	}
	if rp.BackoffMaxSec > 0 && wait > rp.BackoffMaxSec {
		wait = rp.BackoffMaxSec
	}
	b.ReleaseSec = r.now + wait
	r.counts.RetriedBatches++
	r.counts.RetriedJobs += len(b.JobIDs)
	r.retries = append(r.retries, refRetry{at: b.ReleaseSec, b: b})
}

// dispatchPass is continuous batching: while parked recovered work or some
// ripe queue can start on an idle pipeline (or can never start anywhere,
// and fails), start it now — parked work first, oldest first, re-released
// now; then queues, re-packing up to MaxBatch of their oldest requests.
// Ripe queues are tried by priority, then oldest head, then key order.
func (r *refSched) dispatchPass() {
	adm := r.cfg.Admission
	for progressed := true; progressed; {
		progressed = false
		for i, b := range r.parked {
			b.ReleaseSec = max(b.ReleaseSec, r.now)
			c, feasible, _, reason := r.pick(b, true)
			if c.p < 0 && feasible {
				continue
			}
			r.parked = append(r.parked[:i], r.parked[i+1:]...)
			if c.p < 0 {
				r.fail(b, reason)
			} else {
				r.commit(b, c)
			}
			progressed = true
			break
		}
		if progressed {
			continue
		}
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
			c, feasible, _, reason := r.pick(probe, true)
			if c.p < 0 && feasible {
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
		out = append(out, Assignment{
			Batch: s.b, Pipeline: s.pipe, Reason: s.reason, Aborted: s.aborted,
			StartSec: s.start, FinishSec: s.finish, Report: s.rep,
		})
	}
	return out
}

// failedIDs lists the jobs of terminally failed batches, sorted.
func (r *refSched) failedIDs() []int {
	var ids []int
	for _, s := range r.slots {
		if s.pipe < 0 {
			ids = append(ids, s.b.JobIDs...)
		}
	}
	sort.Ints(ids)
	return ids
}

// referenceFleet mixes speeds and prices on the 0.25 s grid of digestTrace,
// so completions land on arrival, timeout and deadline instants. "small"
// runs out of memory above two requests or on long contexts (the latter
// with no reason given), and "shrink" fits at most two requests per pass at
// a per-request cost, so n%2 tails run as their own cheaper pass. "fast"
// and "shrink" write flash (so wear budgets bind), and "slow" is the lossy
// tier that degraded picks land on.
func referenceFleet() []Pipeline {
	writes := func(run RunFunc) RunFunc {
		return func(req pipeline.Request) pipeline.Report {
			rep := run(req)
			rep.PrefillWriteBytes, rep.DecodeWriteBytesPerStep = 1e9, 1e6
			return rep
		}
	}
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
		{Name: "fast", Run: writes(constEngine(2)), USDPerHour: 7.2},
		{Name: "slow", Run: constEngine(5), USDPerHour: 1.8, Lossy: true},
		{Name: "small", Run: small},
		{Name: "shrink", Run: writes(shrink), USDPerHour: 1.8},
	}
}

// referencePlan derives a fault plan and retry policy from a fuzz input.
// bits (flags>>8) bit 0 turns faults on; bits 1–2 are MaxRetries; bits 3–4
// the transient probability; bits 5–6 the wear budget; bit 7 adds a
// straggler; bit 8 snaps the fail-stops to the trace's 0.25 s grid, so they
// coincide with arrivals, finishes and each other; bits 9–10 are the
// breaker's FailureThreshold. The fail-stop rates, one always-failing
// pipeline, the backoff and the quarantine come from seed.
func referencePlan(seed int64, bits, pipelines int, horizon float64) (faults.Plan, RetryPolicy, error) {
	rng := rand.New(rand.NewSource(seed))
	quarter := func(x float64) float64 { return math.Round(x*4) / 4 }
	mtbf := []float64{6, 15, 40}[rng.Intn(3)]
	mttr := []float64{0.5, 3, 12}[rng.Intn(3)]
	events, err := faults.GenerateFailStops(seed, pipelines, horizon, mtbf, mttr)
	if err != nil {
		return faults.Plan{}, RetryPolicy{}, err
	}
	if bits>>8&1 != 0 {
		for i := range events {
			events[i].AtSec, events[i].DurationSec = quarter(events[i].AtSec), quarter(events[i].DurationSec)
		}
	}
	if bits>>7&1 != 0 {
		events = append(events, faults.Event{
			Kind: faults.Straggler, Pipeline: rng.Intn(pipelines),
			AtSec: quarter(rng.Float64() * horizon / 2), DurationSec: 0.25 + quarter(rng.Float64()*horizon/2),
			Factor: []float64{1.5, 2, 3}[rng.Intn(3)],
		})
	}
	if rng.Intn(3) == 0 {
		events = append(events, faults.Event{Kind: faults.Transient, Pipeline: rng.Intn(pipelines), Factor: 1})
	}
	plan := faults.Plan{
		Seed:            seed,
		Events:          events,
		TransientProb:   []float64{0, 0.1, 0.3, 0.6}[bits>>3&3],
		WearBudgetBytes: []float64{0, 3e9, 10e9, 30e9}[bits>>5&3],
	}
	retry := RetryPolicy{
		MaxRetries:       bits >> 1 & 3,
		BackoffSec:       []float64{0, 0.25, 1}[rng.Intn(3)],
		BackoffMaxSec:    []float64{0, 0.5, 4}[rng.Intn(3)],
		FailureThreshold: bits >> 9 & 3,
		QuarantineSec:    []float64{0, 2, 8}[rng.Intn(3)],
	}
	return plan, retry, nil
}

// FuzzEventLoopMatchesReference checks Run against the naive reference
// scheduler, bit for bit, across close-at-admission and continuous
// batching, preemption on and off, every policy, backlog caps on and off,
// subsets of a mixed fleet, and fault plans on and off: fail-stops with
// repairs, transient errors, a straggler, wear budgets, retries and the
// circuit breaker. matchReference says what it compares.
func FuzzEventLoopMatchesReference(f *testing.F) {
	f.Add(int64(1), 40, 4, 12, 0, 0b1111_00_00)
	f.Add(int64(2), 60, 3, 0, 12, 0b1111_01_01)
	f.Add(int64(3), 60, 4, 8, 0, 0b1011_10_10)
	f.Add(int64(4), 80, 5, 4, 16, 0b1111_00_11)
	f.Add(int64(5), 30, 2, 0, 0, 0b0100_01_00)
	// Faulted: close-at-admission, preemption, continuous, both; every
	// policy; snapped and raw fail-stops; thresholds 0–3.
	f.Add(int64(21), 80, 3, 4, 0, 0b01_1_1_01_10_11_1<<8|0b1111_00_00)
	f.Add(int64(22), 90, 4, 8, 20, 0b10_1_0_10_01_10_1<<8|0b1111_01_01)
	f.Add(int64(23), 100, 4, 2, 0, 0b11_0_1_01_11_01_1<<8|0b1011_10_10)
	f.Add(int64(24), 100, 3, 6, 24, 0b01_1_1_11_10_11_1<<8|0b1111_00_11)
	f.Add(int64(25), 70, 2, 0, 0, 0b11_1_0_01_01_11_1<<8|0b1111_10_01)
	f.Add(int64(26), 120, 5, 12, 0, 0b10_1_1_10_11_11_1<<8|0b1101_01_10)
	f.Add(int64(27), 110, 4, 3, 16, 0b01_1_1_11_11_10_1<<8|0b1111_10_00)
	f.Add(int64(28), 60, 1, 1, 0, 0b11_1_0_00_10_01_1<<8|0b1011_00_01)
	f.Add(int64(100), 80, 5, 12, 0, 0b11_0_0_11_11_11_1<<8|0b0111_00_01)
	f.Add(int64(133), 100, 3, 6, 20, 0b11_1_0_00_11_01_1<<8|0b1111_10_01)
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
		var refInj *faults.Injector
		if bits := flags >> 8; bits&1 != 0 {
			plan, retry, err := referencePlan(seed, bits, len(fleet), reqs[len(reqs)-1].ArrivalSec+60)
			if err != nil {
				t.Fatal(err)
			}
			// Each side draws transient fates from its own injector.
			if cfg.Faults, err = faults.New(plan, len(fleet)); err != nil {
				t.Fatal(err)
			}
			if refInj, err = faults.New(plan, len(fleet)); err != nil {
				t.Fatal(err)
			}
			cfg.Retry = retry
		}
		matchReference(t, cfg, refInj, reqs)
	})
}

// matchReference runs reqs through Run and through the reference scheduler
// (which draws transient fates from refInj, built from the same plan as
// cfg.Faults) and fails t at the first difference: the assignments in
// dispatch order (aborted attempts and reasons included), the rejected and
// failed jobs, the preemption and recovery counters, and each pipeline's
// flash writes and wear-out. Everything else in the Summary is a fold of
// these. It returns Run's Summary.
func matchReference(t *testing.T, cfg Config, refInj *faults.Injector, reqs []Request) Summary {
	t.Helper()
	s, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	ref := runReference(cfg, refInj, reqs)

	want := ref.assignments()
	for i := range max(len(want), len(s.Assignments)) {
		if i >= len(want) || i >= len(s.Assignments) || !reflect.DeepEqual(s.Assignments[i], want[i]) {
			t.Fatalf("%+v %+v: assignment %d of %d/%d differs\nRun:       %s\nreference: %s",
				cfg.Admission, cfg.Retry, i, len(s.Assignments), len(want), asgAt(s.Assignments, i), asgAt(want, i))
		}
	}
	sort.Ints(ref.rejected)
	if !reflect.DeepEqual(s.RejectedJobIDs, ref.rejected) {
		t.Fatalf("rejected %v, reference %v", s.RejectedJobIDs, ref.rejected)
	}
	if got, want := s.FailedJobIDs, ref.failedIDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("failed %v, reference %v", got, want)
	}
	got := refCounts{
		PreemptedBatches: s.PreemptedBatches, PreemptedJobs: s.PreemptedJobs,
		RetriedBatches: s.RetriedBatches, RetriedJobs: s.RetriedJobs,
		FailedOverBatches: s.FailedOverBatches, FailedOverJobs: s.FailedOverJobs,
		DegradedBatches: s.DegradedBatches, DegradedJobs: s.DegradedJobs,
	}
	for _, ps := range s.Pipelines {
		got.Faults = append(got.Faults, ps.Faults)
		got.Quarantines = append(got.Quarantines, ps.Quarantines)
	}
	if !reflect.DeepEqual(got, ref.counts) {
		t.Fatalf("counters %+v, reference %+v", got, ref.counts)
	}
	for _, ps := range s.PerPriority {
		if ps.PreemptedJobs != ref.preByPrio[ps.Priority] {
			t.Fatalf("priority %d preempted %d jobs, reference %d", ps.Priority, ps.PreemptedJobs, ref.preByPrio[ps.Priority])
		}
	}
	writes := make([]float64, len(cfg.Fleet))
	for _, sl := range ref.slots {
		if sl.pipe >= 0 {
			writes[sl.pipe] += batchWriteBytes(&sl.rep, &sl.b) * sl.writeFrac
		}
	}
	for p, ps := range s.Pipelines {
		if worn := math.IsInf(ref.health[p].downUntil, 1); ps.WearOut != worn || ps.WriteBytes != writes[p] {
			t.Fatalf("pipeline %d: wear-out %t after %g bytes, reference %t after %g",
				p, ps.WearOut, ps.WriteBytes, worn, writes[p])
		}
	}
	return s
}

// mod folds a fuzzed int into [0, k).
func mod(x, k int) int { return (x%k + k) % k }

// asgAt summarizes asgs[i] for a mismatch report.
func asgAt(asgs []Assignment, i int) string {
	if i >= len(asgs) {
		return "(none)"
	}
	a := asgs[i]
	return fmt.Sprintf("pipe %d [%g, %g] %q aborted %t prio %d release %g attempt %d jobs %v",
		a.Pipeline, a.StartSec, a.FinishSec, a.Reason, a.Aborted, a.Batch.Priority, a.Batch.ReleaseSec, a.Batch.Attempt, a.Batch.JobIDs)
}
