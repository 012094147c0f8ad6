package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/endurance"
	"repro/internal/faults"
	"repro/internal/pipeline"
)

// slot is one dispatched batch on the event loop's schedule. In
// close-at-admission mode slots queue up on a pipeline's chain and may be
// evicted (preempted at the batch boundary) before they start; in
// continuous-batching mode a slot starts the instant it is formed. Failed
// slots (pipe == -1) record batches no pipeline could ever place — or, with
// retries enabled, batches whose recovery budget ran out.
//
// The fault machinery adds attempt outcomes: an aborted slot consumed its
// pipeline (a transient batch error, or a fail-stop killing it mid-run —
// writeFrac says how much of its flash writes landed) but completed no
// work; its batch's retry or terminal failure is recorded separately.
type slot struct {
	b       BatchJob
	rep     *pipeline.Report // shared with the dispatcher's report table
	execSec float64          // run time, for re-timing after an eviction
	pipe    int
	reason  string
	start   float64
	finish  float64
	evicted bool

	aborted   bool
	transient bool    // this attempt draws a transient batch error at finish
	done      bool    // completion already processed (evDone dedup)
	degraded  bool    // served by a lossy tier for lack of a healthy exact one
	writeFrac float64 // fraction of the attempt's flash writes performed
}

// eventLoop is the scheduling core behind Run: a simulated-clock
// discrete-event loop over arrival / wait-timeout / deadline /
// pipeline-free events and per-priority-class queues. Queues release work
// only through ripen, and every planned batch settles only through settle.
type eventLoop struct {
	cfg    Config
	d      *dispatcher
	events eventHeap
	seq    int
	now    float64

	// trace is sorted by (ArrivalSec, ID); next indexes its first request
	// not yet admitted.
	trace []Request
	next  int

	queues map[queueKey]*classQueue
	qlist  []*classQueue // the queues in creation order, for scans
	ripe   []*classQueue // ripeQueues' reused result

	// chains[p] holds the live slots on pipeline p, in execution order: the
	// running slot (immovable) and, in close-at-admission mode, an
	// unstarted suffix that preemption may evict and re-enqueue. Finished
	// slots are pruned as the clock advances; floors[p] keeps the pruned
	// prefix's finish time as the rescheduling baseline.
	chains [][]*slot
	floors []float64
	// order records every dispatch decision in the order it was made;
	// evicted slots are filtered out of the final Summary but keep the
	// dispatch order of everything else stable.
	order []*slot

	rejected []Request
	// sum is the Summary under construction: preemption and recovery
	// counters go straight into it (per pipeline where they have one), and
	// summarize folds the drained schedule in at the end. preempted counts
	// evicted jobs per priority class.
	sum       Summary
	preempted map[int]int

	// pendingRetries holds failed-over and retried batches awaiting an
	// idle pipeline in continuous mode; they dispatch ahead of the queues
	// (they are the oldest admitted work). Whatever is still here when the
	// event heap drains fails terminally — no batch is silently lost.
	pendingRetries []BatchJob
}

func (l *eventLoop) push(e event) {
	e.seq = l.seq
	l.seq++
	l.events.push(e)
}

// nextEvent takes the earliest pending event off the trace or the heap; ok
// is false once both are drained. Arrivals sort first at equal times, so
// the next arrival goes first unless the heap holds a strictly earlier one.
func (l *eventLoop) nextEvent() (e event, ok bool) {
	switch {
	case l.next < len(l.trace) && (len(l.events) == 0 || l.trace[l.next].ArrivalSec <= l.events[0].at):
		l.next++
		return event{at: l.trace[l.next-1].ArrivalSec, kind: evArrival, idx: l.next - 1}, true
	case len(l.events) > 0:
		return l.events.pop(), true
	}
	return event{}, false
}

// run drains the trace and the event heap: the whole simulation, arrivals to
// final flush.
func (l *eventLoop) run() {
	for e, ok := l.nextEvent(); ok; e, ok = l.nextEvent() {
		if l.cfg.Pace != nil && e.at > l.now {
			l.cfg.Pace(e.at)
		}
		l.now = e.at
		l.cfg.Telemetry.tick(l.now)
		l.compact()
		switch e.kind {
		case evArrival:
			l.arrive(e.idx)
		case evTimeout:
			l.fireTimeout(e)
		case evDeadline:
			l.fireDeadline(e)
		case evDone:
			l.fireDone(e)
		case evFault:
			l.injectFault(e.fault.Pipeline, *e.fault)
		case evRepair:
			l.fireRepair(e)
		case evRetry:
			l.redispatch(*e.b)
		case evFree:
			l.tryDispatch()
		}
	}
}

// compact prunes finished slots (finish ≤ now) from the pipeline chains, so
// the backlog and preemption scans stay proportional to the live schedule,
// not the whole history. Slot finishes are non-decreasing along a chain, so
// the finished work is always a prefix; its last finish becomes the floor.
func (l *eventLoop) compact() {
	for p, chain := range l.chains {
		i := 0
		for i < len(chain) && chain[i].finish <= l.now {
			l.floors[p] = chain[i].finish
			i++
		}
		if i > 0 {
			l.chains[p] = chain[i:]
		}
	}
}

// backlog counts admitted-but-unstarted jobs of priority ≥ minPrio: queued
// requests plus jobs in unstarted slots. Without preemption minPrio is 0,
// which counts everything — the original backlog-cap semantics.
func (l *eventLoop) backlog(minPrio int) int {
	n := 0
	for _, q := range l.qlist {
		if q.key.priority >= minPrio {
			n += len(q.reqs)
		}
	}
	for _, chain := range l.chains {
		for _, s := range chain {
			if s.start > l.now && s.b.Priority >= minPrio {
				n += len(s.b.JobIDs)
			}
		}
	}
	return n
}

// arrive admits trace request i: backlog cap, queue insertion, and ripening
// when the queue fills (close-at-admission) or at once (continuous).
func (l *eventLoop) arrive(i int) {
	r := &l.trace[i]
	if cap := l.cfg.Admission.MaxBacklog; cap > 0 {
		// With preemption, a request only competes for backlog space with
		// work of its own priority or above: online arrivals are no longer
		// rejected just because offline work is queued — the offline tier
		// absorbs the overload by waiting instead.
		minPrio := 0
		if l.cfg.Admission.Preemption {
			minPrio = r.Priority
		}
		if l.backlog(minPrio) >= cap {
			l.rejected = append(l.rejected, *r)
			l.cfg.Telemetry.onReject(*r)
			return
		}
	}
	k := queueKey{priority: r.Priority, class: r.Class}
	q := l.queues[k]
	if q == nil {
		q = &classQueue{key: k, table: l.d.table(r.Class)}
		l.queues[k] = q
		l.qlist = append(l.qlist, q)
	}
	if len(q.reqs) == 0 {
		l.push(event{at: r.ArrivalSec + l.cfg.Admission.MaxWaitSec, kind: evTimeout, q: q,
			dl: r.ArrivalSec + l.cfg.Admission.MaxWaitSec})
	}
	pos := q.taken + len(q.reqs)
	q.reqs = append(q.reqs, i)
	l.cfg.Telemetry.onArrival(*r)
	l.cfg.Telemetry.onQueueDepth(k, len(q.reqs))
	if l.cfg.Admission.Preemption && r.DeadlineSec > 0 {
		l.push(event{at: r.StartDeadline(), kind: evDeadline, q: q, idx: pos})
	}
	if l.cfg.Admission.ContinuousBatching || len(q.reqs) >= l.cfg.Admission.MaxBatch {
		l.ripen(q)
	}
}

// fireTimeout handles a max-wait expiry. Stale events — the queue already
// closed, or refilled with a later head — are skipped: the armed deadline
// no longer matches.
func (l *eventLoop) fireTimeout(e event) {
	if len(e.q.reqs) > 0 && e.q.waitDeadline(l.trace, l.cfg.Admission.MaxWaitSec) == e.dl {
		l.ripen(e.q)
	}
}

// fireDeadline handles a start-deadline expiry (preemption mode only): a
// request still waiting ripens its queue now, instead of waiting out the
// max-wait timer behind offline work. The queue is FIFO, so the request is
// still waiting exactly while its admission position has not been taken.
func (l *eventLoop) fireDeadline(e event) {
	if e.idx >= e.q.taken {
		l.ripen(e.q)
	}
}

// ripen releases work from queue q, which just filled, timed out, or reached
// a member's start deadline. Continuous batching offers every ripe queue to
// the idle pipelines; close-at-admission closes all of q into one batch
// released now and places it, with deadline-aware preemption.
func (l *eventLoop) ripen(q *classQueue) {
	if l.cfg.Admission.ContinuousBatching {
		l.tryDispatch()
		return
	}
	l.place(l.takeBatch(q, len(q.reqs)), true)
}

// makeBatch forms a BatchJob from the trace requests at idx, members of one
// queue.
func makeBatch(k queueKey, trace []Request, idx []int, release float64) BatchJob {
	b := BatchJob{
		Class: k.class, Priority: k.priority, ReleaseSec: release,
		JobIDs:    make([]int, len(idx)),
		Arrivals:  make([]float64, len(idx)),
		Deadlines: make([]float64, len(idx)),
	}
	for i, j := range idx {
		r := &trace[j]
		b.JobIDs[i] = r.ID
		b.Arrivals[i] = r.ArrivalSec
		if r.DeadlineSec > 0 {
			b.Deadlines[i] = r.ArrivalSec + r.DeadlineSec
		}
	}
	return b
}

// minDeadline is the batch's earliest member start deadline, or +Inf.
func minDeadline(b BatchJob) float64 {
	min := math.Inf(1)
	for _, d := range b.Deadlines {
		if d > 0 && d < min {
			min = d
		}
	}
	return min
}

// takeBatch removes q's n oldest requests as a batch released now, and
// re-arms the max-wait timer for the queue's new head.
func (l *eventLoop) takeBatch(q *classQueue, n int) BatchJob {
	b := makeBatch(q.key, l.trace, q.reqs[:n], l.now)
	q.take(n)
	l.cfg.Telemetry.onQueueDepth(q.key, len(q.reqs))
	if len(q.reqs) > 0 {
		dl := q.waitDeadline(l.trace, l.cfg.Admission.MaxWaitSec)
		l.push(event{at: max(dl, l.now), kind: evTimeout, q: q, dl: dl})
	}
	return b
}

// commitSlot materializes a planned placement as a schedule slot. With a
// fault injector active it also draws the attempt's transient-error fate
// (at commit, in dispatch order — single-goroutine, so the PRNG stream is
// deterministic) and arms a completion event carrying the finish it was
// armed for, so preemption-shifted slots invalidate stale completions. In
// continuous mode it arms the pipeline-free event that re-packs the queues.
func (l *eventLoop) commitSlot(b BatchJob, pl placement) {
	s := &slot{
		b: b, rep: pl.rep, execSec: pl.sec,
		pipe: pl.p, start: pl.start, finish: pl.start + pl.sec,
		degraded: pl.degraded, writeFrac: 1,
	}
	l.d.freeAt[pl.p] = s.finish
	l.chains[pl.p] = append(l.chains[pl.p], s)
	l.order = append(l.order, s)
	name := l.cfg.Fleet[pl.p].Name
	l.cfg.Telemetry.onBatch("dispatch", l.now, &s.b, name, s.finish-s.start,
		func() string { return fmt.Sprintf("start=%g", s.start) })
	if l.d.inj != nil {
		s.transient = l.d.inj.BatchFails(pl.p)
		if pl.degraded {
			l.sum.DegradedBatches++
			l.sum.DegradedJobs += len(b.JobIDs)
			l.cfg.Telemetry.onBatch("degrade", l.now, &s.b, name, 0, nil)
		}
		l.push(event{at: s.finish, kind: evDone, s: s, dl: s.finish})
	}
	if l.cfg.Admission.ContinuousBatching {
		l.push(event{at: s.finish, kind: evFree})
	}
}

// failSlot records a batch no pipeline could place.
func (l *eventLoop) failSlot(b BatchJob, reason string) {
	l.order = append(l.order, &slot{b: b, pipe: -1, reason: reason})
	l.cfg.Telemetry.onFail(l.now, b, reason)
}

// place dispatches a closed batch (close-at-admission mode). With mayPreempt
// under preemption, a batch that would miss its earliest member deadline on
// the policy's pick instead takes the pipeline where it can start soonest
// after evicting strictly-lower-priority unstarted slots; evicted batches
// are re-placed without that escalation, so one eviction cannot cascade.
func (l *eventLoop) place(b BatchJob, mayPreempt bool) {
	t := l.d.table(b.Class)
	pl, feasible, nextAvail := l.d.plan(t, len(b.JobIDs), b.ReleaseSec, false, l.now)
	if mayPreempt && pl.p >= 0 && l.cfg.Admission.Preemption && minDeadline(b) < pl.start {
		if p, est := l.bestPreemptive(b, t); p >= 0 && est < pl.start {
			l.preemptInto(p, b, t)
			return
		}
	}
	l.settle(b, pl, feasible, nextAvail)
}

// settle carries out a plan: commit the batch to the chosen pipeline; when
// every pipeline that could serve it is temporarily down or quarantined,
// defer it to the earliest re-admission instant instead of failing work the
// fleet will soon be able to run; fail it only when no pipeline can ever
// place it.
func (l *eventLoop) settle(b BatchJob, pl placement, feasible bool, nextAvail float64) {
	switch {
	case pl.p >= 0:
		l.commitSlot(b, pl)
	case feasible && !math.IsInf(nextAvail, 1):
		deferred := b // a copy, so only this branch allocates
		l.push(event{at: nextAvail, kind: evRetry, b: &deferred})
	default:
		l.failSlot(b, pl.reason)
	}
}

// bestPreemptive returns the feasible pipeline on which b (of t's shape)
// would start earliest if every strictly-lower-priority unstarted slot there
// were evicted, with that start time. Started slots never move: preemption
// acts only at batch boundaries.
func (l *eventLoop) bestPreemptive(b BatchJob, t *reportTable) (int, float64) {
	n := len(b.JobIDs)
	best, bestStart := -1, math.Inf(1)
	for p := range l.d.fleet {
		rep := l.d.report(t, p, n)
		if rep.OOM || rep.Batch < 1 {
			continue
		}
		if l.d.avail(p) > l.now {
			continue // down, quarantined, or worn out: nothing to preempt into
		}
		prevFinish := l.floors[p]
		for _, s := range l.chains[p] {
			switch {
			case s.start <= l.now:
				prevFinish = s.finish // started: immovable
			case s.b.Priority >= b.Priority:
				st := math.Max(s.b.ReleaseSec, prevFinish) // survivor, shifted up
				prevFinish = st + s.execSec
			}
			// Strictly-lower-priority unstarted slots would be evicted.
		}
		if est := math.Max(b.ReleaseSec, prevFinish); est < bestStart {
			best, bestStart = p, est
		}
	}
	return best, bestStart
}

// preemptInto evicts every strictly-lower-priority unstarted slot on
// pipeline p, re-times the survivors, places b (of t's shape) at the end of
// the compacted chain, and re-dispatches the evicted batches at the current
// instant — work is displaced, never lost.
func (l *eventLoop) preemptInto(p int, b BatchJob, t *reportTable) {
	evicted := l.evict(p, func(s *slot) bool { return s.b.Priority < b.Priority })
	n := len(b.JobIDs)
	rep := l.d.report(t, p, n)
	start := math.Max(b.ReleaseSec, l.d.freeAt[p])
	sec := l.d.execSec(p, t, n, rep) * l.d.slow(p, start)
	l.commitSlot(b, placement{p: p, rep: rep, sec: sec, start: start})

	for _, ev := range evicted {
		l.sum.PreemptedBatches++
		l.sum.PreemptedJobs += len(ev.b.JobIDs)
		l.preempted[ev.b.Priority] += len(ev.b.JobIDs)
		l.cfg.Telemetry.onBatch("preempt", l.now, &ev.b, l.cfg.Fleet[p].Name, 0,
			func() string { return fmt.Sprintf("by_priority=%d", b.Priority) })
	}
	for _, ev := range evicted {
		nb := ev.b
		nb.ReleaseSec = l.now
		l.place(nb, false)
	}
}

// evict removes pipeline p's unstarted slots that match drop from its chain,
// marks them evicted, re-times the survivors, and returns the evicted slots.
func (l *eventLoop) evict(p int, drop func(*slot) bool) []*slot {
	var evicted []*slot
	kept := l.chains[p][:0]
	for _, s := range l.chains[p] {
		if s.start > l.now && drop(s) {
			s.evicted = true
			evicted = append(evicted, s)
		} else {
			kept = append(kept, s)
		}
	}
	l.chains[p] = kept
	l.recompute(p)
	return evicted
}

// recompute re-times pipeline p's unstarted suffix after an eviction:
// survivors shift up to max(their release, predecessor finish), and the
// pipeline clock tracks the new chain end. With faults active each shifted
// slot re-arms its completion event for the new finish; the events armed
// for the old finish go stale (their dl no longer matches) and a done flag
// dedups the case where two armings land on the same instant.
func (l *eventLoop) recompute(p int) {
	prevFinish := l.floors[p]
	for _, s := range l.chains[p] {
		if s.start <= l.now {
			prevFinish = s.finish
			continue
		}
		old := s.finish
		s.start = math.Max(s.b.ReleaseSec, prevFinish)
		s.finish = s.start + s.execSec
		prevFinish = s.finish
		if l.d.inj != nil && s.finish != old {
			l.push(event{at: s.finish, kind: evDone, s: s, dl: s.finish})
		}
	}
	l.d.freeAt[p] = prevFinish
}

// fireDone settles one attempt at its finish (faults active only): charge
// the attempt's flash writes against the pipeline's wear budget, then
// resolve its transient-error fate. Stale events — the slot was evicted,
// killed, or re-timed by preemption — are skipped; the done flag dedups
// re-armed events that landed on the same finish.
func (l *eventLoop) fireDone(e event) {
	s := e.s
	if s.done || s.evicted || s.aborted || s.finish != e.dl {
		return
	}
	s.done = true
	p := s.pipe
	if l.d.health[p].wear.Add(batchWriteBytes(s.rep, &s.b)) {
		// This attempt's writes crossed the endurance budget: the pipeline
		// retires permanently, effective now (the completion boundary).
		l.injectFault(p, faults.Event{Kind: faults.WearOut, Pipeline: p, AtSec: l.now})
	}
	if s.transient {
		s.aborted = true
		s.reason = "transient batch error"
		l.noteFailure(p)
		l.failAttempt(p, s.b, "transient batch error")
		return
	}
	l.d.health[p].consecFails = 0
}

// injectFault applies one injected fault to pipeline p: a wear-out retires
// it permanently, a fail-stop takes it down for the event's repair window
// (with the repair re-admission scheduled). The running slot dies on the
// spot — its flash writes prorated by run fraction, its batch routed into
// the retry path — and queued-ahead work fails over immediately.
func (l *eventLoop) injectFault(p int, fe faults.Event) {
	h := &l.d.health[p]
	if math.IsInf(h.downUntil, 1) {
		return // already permanently retired
	}
	if fe.Kind == faults.WearOut {
		h.downUntil = math.Inf(1)
	} else {
		if h.downUntil > l.now {
			return // overlapping fail-stop: the pipeline is already down
		}
		h.downUntil = l.now + fe.DurationSec
		l.push(event{at: h.downUntil, kind: evRepair, idx: p})
	}
	l.sum.Pipelines[p].Faults++
	l.cfg.Telemetry.onFault(l.now, l.cfg.Fleet[p].Name, fe)
	for _, s := range l.chains[p] {
		if s.aborted || s.evicted || s.start > l.now || s.finish <= l.now {
			continue
		}
		frac := 0.0
		if s.finish > s.start {
			frac = (l.now - s.start) / (s.finish - s.start)
		}
		s.aborted = true
		s.writeFrac = frac
		s.finish = l.now
		s.reason = "killed by " + string(fe.Kind)
		if h.wear.Add(frac * batchWriteBytes(s.rep, &s.b)) {
			// The partial writes themselves exhausted the budget: the
			// repair window becomes moot — the device is worn out.
			h.downUntil = math.Inf(1)
		}
		l.failAttempt(p, s.b, "killed by "+string(fe.Kind))
	}
	l.evictUnstarted(p, string(fe.Kind))
}

// fireRepair re-admits pipeline p when its downtime and quarantine have
// both passed (a repair armed for a window that was later superseded — or
// for a pipeline that wore out permanently in the meantime — is stale and
// skipped), then offers it the waiting work.
func (l *eventLoop) fireRepair(e event) {
	p := e.idx
	h := &l.d.health[p]
	if h.downUntil > l.now || h.quarUntil > l.now {
		return
	}
	h.consecFails = 0
	l.cfg.Telemetry.onRepair(l.now, l.cfg.Fleet[p].Name)
	l.tryDispatch()
}

// failAttempt routes one failed attempt of a batch: re-dispatch after
// deterministic exponential backoff while the retry budget lasts, terminal
// failure once it is exhausted. Backoff is never jittered — replays are
// bit-identical.
func (l *eventLoop) failAttempt(p int, b BatchJob, reason string) {
	attempt := b.Attempt + 1
	if attempt > l.cfg.Retry.MaxRetries {
		l.failSlot(b, reason+" (retries exhausted)")
		return
	}
	nb := b
	nb.Attempt = attempt
	nb.ReleaseSec = l.now + l.cfg.Retry.backoffSec(attempt)
	l.sum.RetriedBatches++
	l.sum.RetriedJobs += len(nb.JobIDs)
	l.cfg.Telemetry.onBatch("retry", l.now, &nb, l.cfg.Fleet[p].Name, nb.ReleaseSec-l.now,
		func() string { return fmt.Sprintf("attempt=%d %s", nb.Attempt, reason) })
	l.push(event{at: nb.ReleaseSec, kind: evRetry, b: &nb})
}

// noteFailure advances pipeline p's circuit breaker after a failed attempt:
// at FailureThreshold consecutive failures the pipeline is quarantined for
// QuarantineSec, its queued-ahead work fails over, and a re-admission is
// scheduled. Runs before the failed batch's own retry is armed, so even a
// zero-backoff retry sees the quarantine.
func (l *eventLoop) noteFailure(p int) {
	h := &l.d.health[p]
	h.consecFails++
	if l.cfg.Retry.FailureThreshold <= 0 || h.consecFails < l.cfg.Retry.FailureThreshold {
		return
	}
	if h.downUntil > l.now || h.quarUntil > l.now {
		return // already out of service
	}
	h.consecFails = 0
	h.quarUntil = l.now + l.cfg.Retry.QuarantineSec
	l.sum.Pipelines[p].Quarantines++
	l.cfg.Telemetry.onQuarantine(l.now, l.cfg.Fleet[p].Name, l.cfg.Retry.QuarantineSec)
	l.evictUnstarted(p, "quarantine")
	l.push(event{at: h.quarUntil, kind: evRepair, idx: p})
}

// evictUnstarted fails pipeline p's queued-ahead (unstarted) slots over to
// the rest of the fleet: each is evicted and re-dispatched at the current
// instant, exactly like a preemption eviction — displaced, never lost. The
// chain is re-timed unconditionally, which also rewinds the pipeline clock
// after a kill truncated the running slot.
func (l *eventLoop) evictUnstarted(p int, cause string) {
	evicted := l.evict(p, func(*slot) bool { return true })
	for _, ev := range evicted {
		l.sum.FailedOverBatches++
		l.sum.FailedOverJobs += len(ev.b.JobIDs)
		l.cfg.Telemetry.onBatch("failover", l.now, &ev.b, l.cfg.Fleet[p].Name, 0, func() string { return cause })
	}
	for _, ev := range evicted {
		nb := ev.b
		nb.ReleaseSec = l.now
		l.redispatch(nb)
	}
}

// redispatch places recovered work (a retry whose backoff expired, or a
// failed-over batch): continuous mode parks it on the pendingRetries list
// — drained ahead of the queues at the next dispatch opportunity — while
// close-at-admission mode re-plans immediately, deferring again if the
// whole fleet is still out of service.
func (l *eventLoop) redispatch(b BatchJob) {
	if b.ReleaseSec < l.now {
		// Recovered work re-releases at the instant it re-enters dispatch:
		// a batch deferred past its backoff expiry must not be backdated to
		// a start while its pipeline was still down.
		b.ReleaseSec = l.now
	}
	if l.cfg.Admission.ContinuousBatching {
		l.pendingRetries = append(l.pendingRetries, b)
		l.tryDispatch()
		return
	}
	l.place(b, false)
}

// isRipe reports whether a queue may dispatch now (continuous mode): a full
// batch is waiting, the oldest member's max wait expired, or — under
// preemption — a member's start deadline arrived.
func (l *eventLoop) isRipe(q *classQueue) bool {
	return len(q.reqs) >= l.cfg.Admission.MaxBatch ||
		q.waitDeadline(l.trace, l.cfg.Admission.MaxWaitSec) <= l.now ||
		l.cfg.Admission.Preemption && q.minStartDeadline(l.trace) <= l.now
}

// ripeQueues returns the dispatchable queues in scheduling order: priority
// first, then oldest waiting head, then class key order. Each comparison
// returns at the first key that decides it. The slice is valid until the
// next call.
func (l *eventLoop) ripeQueues() []*classQueue {
	qs := l.ripe[:0]
	for _, q := range l.qlist {
		if len(q.reqs) > 0 && l.isRipe(q) {
			qs = append(qs, q)
		}
	}
	slices.SortFunc(qs, func(a, b *classQueue) int {
		if a.key.priority != b.key.priority {
			return cmp.Compare(b.key.priority, a.key.priority)
		}
		if ta, tb := l.trace[a.reqs[0]].ArrivalSec, l.trace[b.reqs[0]].ArrivalSec; ta != tb {
			return cmp.Compare(ta, tb)
		}
		return a.key.cmp(b.key)
	})
	l.ripe = qs
	return qs
}

// tryDispatch is the continuous-batching scheduler: while an idle pipeline
// can take a ripe queue's batch, re-pack up to MaxBatch of its oldest
// requests and start them immediately. Batches are therefore formed at
// dispatch time — a pipeline freeing early picks up whatever has queued
// since, instead of a stale admission-time batch.
func (l *eventLoop) tryDispatch() {
	if !l.cfg.Admission.ContinuousBatching {
		return
	}
	for l.dispatchRetry() || l.dispatchQueue() {
	}
}

// dispatchQueue starts (or fails, if no pipeline ever could take it) one
// batch off the first ripe queue an idle pipeline can take, if any.
func (l *eventLoop) dispatchQueue() bool {
	for _, q := range l.ripeQueues() {
		n := min(len(q.reqs), l.cfg.Admission.MaxBatch)
		pl, feasible, nextAvail := l.d.plan(q.table, n, l.now, true, l.now)
		if pl.p < 0 && feasible {
			continue // every feasible pipeline is busy or down: wait for a free/repair event
		}
		l.settle(l.takeBatch(q, n), pl, feasible, nextAvail)
		return true
	}
	return false
}

// dispatchRetry tries to place one batch off the pendingRetries list
// (continuous mode): recovered work dispatches ahead of the queues because
// it is the oldest admitted work. A batch no fleet member can ever serve
// again fails terminally; one that is merely waiting on busy or recovering
// pipelines stays parked for the next free/repair event.
func (l *eventLoop) dispatchRetry() bool {
	for i, b := range l.pendingRetries {
		if b.ReleaseSec < l.now {
			b.ReleaseSec = l.now // parked since an earlier instant: re-release now
		}
		pl, feasible, nextAvail := l.d.plan(l.d.table(b.Class), len(b.JobIDs), b.ReleaseSec, true, l.now)
		if pl.p < 0 && feasible {
			continue
		}
		l.pendingRetries = slices.Delete(l.pendingRetries, i, i+1)
		l.settle(b, pl, feasible, nextAvail)
		return true
	}
	return false
}

// Run drains a timestamped trace through the fleet: the full discrete-event
// loop of arrivals, per-priority-class queues, batch formation (at admission
// or, with continuous batching, at dispatch) and policy placement, with
// deadline-aware preemption when enabled. Requests are processed in arrival
// order (ties by ID); expired wait timeouts fire, in deadline order, before
// any later arrival is admitted, and remaining queues flush at their
// deadlines after the trace ends. The result is identical run to run. Run
// never modifies reqs: a trace already in (ArrivalSec, ID) order is read in
// place, any other is sorted into a copy.
func Run(cfg Config, reqs []Request) (Summary, error) {
	if err := cfg.Admission.validate(); err != nil {
		return Summary{}, err
	}
	if err := cfg.Retry.validate(); err != nil {
		return Summary{}, err
	}
	if len(reqs) == 0 {
		return Summary{}, fmt.Errorf("cluster: empty trace")
	}
	d, err := newDispatcher(cfg.Model, cfg.Fleet, cfg.Policy)
	if err != nil {
		return Summary{}, err
	}

	sorted := reqs
	if !strictlySorted(reqs) {
		sorted = slices.Clone(reqs)
		sort.SliceStable(sorted, func(i, j int) bool {
			if sorted[i].ArrivalSec != sorted[j].ArrivalSec {
				return sorted[i].ArrivalSec < sorted[j].ArrivalSec
			}
			return sorted[i].ID < sorted[j].ID
		})
	}
	ids := make([]int, len(sorted))
	for i, r := range sorted {
		ids[i] = r.ID
		if r.ArrivalSec < 0 || math.IsInf(r.ArrivalSec, 0) || math.IsNaN(r.ArrivalSec) {
			return Summary{}, fmt.Errorf("cluster: arrival time %g for request %d is not finite and ≥ 0", r.ArrivalSec, r.ID)
		}
		if r.Priority < 0 {
			return Summary{}, fmt.Errorf("cluster: priority %d for request %d is negative", r.Priority, r.ID)
		}
		if r.DeadlineSec < 0 || math.IsInf(r.DeadlineSec, 0) || math.IsNaN(r.DeadlineSec) {
			return Summary{}, fmt.Errorf("cluster: deadline %g for request %d is not finite and ≥ 0", r.DeadlineSec, r.ID)
		}
	}
	// Summary accounting keys on request IDs, so they must be unique.
	slices.Sort(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return Summary{}, fmt.Errorf("cluster: request ID %d appears more than once in the trace", ids[i])
		}
	}

	d.prewarm(sorted, cfg.Admission.MaxBatch)

	l := &eventLoop{
		cfg:    cfg,
		d:      d,
		queues: map[queueKey]*classQueue{},
		chains: make([][]*slot, len(cfg.Fleet)),
		floors: make([]float64, len(cfg.Fleet)),
		trace:  sorted,
		sum: Summary{
			Policy: cfg.Policy, Requests: len(reqs),
			PerClassSec: map[string]float64{}, Pipelines: make([]PipelineStats, len(cfg.Fleet)),
		},
		preempted: map[int]int{},
	}
	// An injector with nothing to inject is dropped entirely: every fault
	// path keys off d.inj != nil, so the empty-injector run is the
	// fault-free run, bit for bit.
	if inj := cfg.Faults; !inj.Empty() {
		d.inj = inj
		for p := range d.health {
			if budget := inj.WearBudgetBytes(p); budget > 0 {
				d.health[p].wear = endurance.NewBudget(budget)
			}
		}
		fs := inj.FailStops()
		for i := range fs {
			if fs[i].Pipeline >= len(cfg.Fleet) {
				return Summary{}, fmt.Errorf("cluster: fault schedule targets pipeline %d of a %d-pipeline fleet", fs[i].Pipeline, len(cfg.Fleet))
			}
			l.push(event{at: fs[i].AtSec, kind: evFault, fault: &fs[i]})
		}
	}
	l.run()
	// Job conservation's backstop: recovered work still parked when the
	// event heap drains means no pipeline will ever serve it — fail it
	// terminally rather than lose it silently.
	for _, b := range l.pendingRetries {
		l.failSlot(b, "no healthy pipeline before trace end")
	}

	asgs := make([]Assignment, 0, len(l.order))
	fracs := make([]float64, 0, len(l.order))
	for _, s := range l.order {
		if s.evicted {
			continue
		}
		// Failed slots (pipe -1) have no report, times or write fraction.
		a := Assignment{
			Batch: s.b, Pipeline: s.pipe,
			StartSec: s.start, FinishSec: s.finish,
			Aborted: s.aborted, Reason: s.reason,
		}
		if s.rep != nil {
			a.Report = *s.rep
		}
		asgs = append(asgs, a)
		fracs = append(fracs, s.writeFrac)
	}
	return summarize(l, asgs, fracs), nil
}

// strictlySorted reports whether reqs is strictly increasing in
// (ArrivalSec, ID). Such a trace is a fixed point of Run's stable sort, so
// Run can read it in place. A NaN arrival or a repeated (ArrivalSec, ID)
// pair fails the test, so those traces take the sorting path and meet its
// validation errors in the order they always have.
func strictlySorted(reqs []Request) bool {
	for i := 1; i < len(reqs); i++ {
		a, b := &reqs[i-1], &reqs[i]
		if !(a.ArrivalSec < b.ArrivalSec || a.ArrivalSec == b.ArrivalSec && a.ID < b.ID) {
			return false
		}
	}
	return true
}
