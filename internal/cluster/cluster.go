// Package cluster is the trace-driven service layer over heterogeneous
// engine fleets: an event-driven, simulated-clock scheduler that admits
// timestamped requests into per-priority-class queues and drains them
// through a fleet whose members may be backed by *different* engines
// (e.g. two HILOS hosts, a DRAM baseline, and an InstInfer tier) under a
// pluggable cost-aware policy.
//
// The core is one discrete-event loop (events.go) over request arrival,
// batch wait-timeout, request start-deadline, and pipeline-free events —
// layered over per-priority queues (queue.go) and the policy/placement
// layer (dispatch.go). Work takes one path through the loop: a queue
// ripens when it fills, when its oldest member has waited MaxWaitSec, or
// (under preemption) when a member's start deadline arrives; each batch
// that ripening forms is planned by the policy and then settled —
// committed to a pipeline, deferred while every pipeline that could serve
// it is out of service, or failed when none ever can. A deterministic fault
// injector (Config.Faults, see internal/faults) adds completion, fault,
// repair, and retry events plus a self-healing recovery layer (health.go):
// bounded retries with exponential backoff, per-pipeline circuit breakers,
// failover of queued work, and graceful degradation to lossy tiers. Two
// admission extensions change what ripening does:
//
//   - Continuous batching re-forms batches at dispatch time: ripening
//     offers every ripe queue to the idle pipelines, so work waits in its
//     queue until a pipeline is actually free, and the freed pipeline
//     re-packs up to MaxBatch of the oldest waiting requests — not the
//     stale batch that happened to close at admission.
//   - Deadline-aware preemption lets online priority classes displace
//     queued offline work: a batch that would miss its start deadline takes
//     the pipeline where it starts soonest after evicting
//     strictly-lower-priority *unstarted* batches, which are re-enqueued
//     and re-run — never dropped. Preemption acts only at batch boundaries;
//     running work always completes.
//
// With both extensions disabled, ripening closes the whole queue into one
// batch and the loop is the classic close-at-admission, run-to-completion
// scheduler, so pure offline studies are unchanged. A deliberately naive
// reference scheduler in the tests (reference_test.go) re-derives the
// schedule from these rules, fault recovery included, and is fuzzed
// against Run for bit-identical assignments. The facade's offline backlog
// (Simulator.Backlog) is the degenerate trace — every request arrives at
// time zero, priority 0, zero max wait, over identical pipelines — and runs
// through Run like every other trace: there is one scheduling
// implementation, not two.
//
// Everything is deterministic under -race: engine simulations are pure and
// prewarmed on a worker pool, while admission, eviction and placement run
// on a single goroutine against the simulated clock.
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/endurance"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Request is one timestamped inference request.
type Request = workload.TimedRequest

// Admission is the batch-formation policy: a per-priority-class batch
// closes when it reaches MaxBatch requests or when its oldest member has
// waited MaxWaitSec (whichever comes first), and new arrivals are rejected
// while the admitted backlog holds MaxBacklog or more not-yet-started
// requests. ContinuousBatching and Preemption select the event-driven
// scheduling extensions; both default off, which reproduces the
// close-at-admission scheduler exactly.
type Admission struct {
	// MaxBatch is the target batch size (≥ 1).
	MaxBatch int
	// MaxWaitSec is how long the oldest queued request may wait before its
	// partial batch is released anyway. 0 releases a batch at the first
	// arrival instant that leaves it partial; offline studies use a large
	// value so batches always fill.
	MaxWaitSec float64
	// MaxBacklog caps admitted-but-unstarted requests (queued plus assigned
	// to a pipeline that has not begun them). Arrivals beyond the cap are
	// rejected — unless Preemption is on, in which case an arrival competes
	// only with work of its own priority and above, so online requests are
	// never rejected because offline work is queued. 0 means unbounded
	// (pure offline admission).
	MaxBacklog int
	// ContinuousBatching re-forms batches at dispatch time: requests wait
	// in their queue until a pipeline is free, which then re-packs up to
	// MaxBatch of the oldest eligible requests. Off, batches close at
	// admission and queue ahead on the policy's pick.
	ContinuousBatching bool
	// Preemption enables deadline-aware displacement: requests carrying a
	// DeadlineSec force their partial batch out when the deadline arrives,
	// and a batch that would miss its earliest member deadline evicts
	// strictly-lower-priority unstarted batches (re-enqueued, never
	// dropped) from the pipeline where it can start soonest. Off, deadlines
	// are advisory — misses are reported but never change the schedule.
	// With ContinuousBatching there are no unstarted batches to evict, so
	// preemption reduces to deadline-triggered dispatch eligibility plus
	// the priority ordering of the queues.
	Preemption bool
}

func (a Admission) validate() error {
	if a.MaxBatch < 1 {
		return fmt.Errorf("cluster: admission max batch must be ≥ 1, got %d", a.MaxBatch)
	}
	if a.MaxWaitSec < 0 || math.IsInf(a.MaxWaitSec, 0) || math.IsNaN(a.MaxWaitSec) {
		return fmt.Errorf("cluster: admission max wait must be finite and ≥ 0, got %g", a.MaxWaitSec)
	}
	if a.MaxBacklog < 0 {
		return fmt.Errorf("cluster: admission max backlog must be ≥ 0, got %d", a.MaxBacklog)
	}
	return nil
}

// Config describes one cluster evaluation.
type Config struct {
	Model     model.Config
	Fleet     []Pipeline
	Policy    Policy
	Admission Admission

	// Telemetry, when non-nil, streams per-event metrics and events out of
	// the loop (see NewTelemetry). It never feeds back into scheduling:
	// runs with and without it produce bit-identical Summaries.
	Telemetry *Telemetry
	// Pace, when non-nil, is called with the simulated time of each event
	// before the event executes — the hook where a replay is slaved to the
	// wall clock at the serving boundary. It must not mutate scheduling
	// state; the loop's outcome is independent of how long Pace blocks.
	Pace func(simSec float64)

	// Faults, when non-nil, injects deterministic failures into the run:
	// fail-stop windows, transient batch errors, straggler slowdowns, and
	// wear-out retirement (see internal/faults). Everything is driven by
	// the plan's seed and the simulated clock — never wall time — so a
	// faulted run replays bit-identically. An injector with nothing
	// scheduled is equivalent to nil: the Summary is bit-identical to a
	// fault-free run.
	Faults *faults.Injector
	// Retry is the recovery policy for fault-failed work. The zero value
	// makes every failed attempt terminal; DefaultRetryPolicy() enables
	// bounded retries with exponential backoff and the per-pipeline
	// circuit breaker. Ignored without Faults — nothing fails mid-flight.
	Retry RetryPolicy
}

// PipelineStats attributes completed work to one fleet member.
type PipelineStats struct {
	Name    string
	Batches int
	Jobs    int
	// BusySec is total execution time on this pipeline; Utilization is
	// BusySec over the cluster makespan.
	BusySec      float64
	Utilization  float64
	OutputTokens int64
	// CostUSD is the amortized hardware dollars charged for BusySec.
	CostUSD float64
	// EnergyJ integrates the Fig. 17(a) model over the pipeline's completed
	// work (0 when the pipeline has no Energy func).
	EnergyJ float64
	// EnergyErr records the first error the pipeline's Energy func returned
	// (e.g. for a report with no decode step), so a 0 EnergyJ is never
	// silently wrong.
	EnergyErr string
	// WriteBytes is the physical flash bytes written executing this
	// pipeline's completed work (prefill KV spills plus per-step decode
	// writeback, from the engine's Report write accounting; 0 for
	// DRAM-resident engines).
	WriteBytes float64
	// WearPct is WriteBytes as a percentage of the pipeline's total §6.6
	// endurance budget (Devices × endurance.DefaultPBW petabytes written);
	// 0 when the engine reports no flash devices.
	WearPct float64
	// WritePressureBps is the average write bandwidth demanded while busy
	// (WriteBytes / BusySec) — the writeback pressure the FTL must absorb.
	WritePressureBps float64
	// Faults counts injected faults that fired on this pipeline
	// (fail-stops and wear-outs); Quarantines counts circuit-breaker
	// trips; WearOut reports permanent retirement after the pipeline's
	// cumulative writes crossed its endurance budget.
	Faults      int
	Quarantines int
	WearOut     bool
}

// PriorityStats attributes scheduling outcomes to one priority class.
type PriorityStats struct {
	// Priority is the class (higher is more urgent; 0 is offline).
	Priority int
	// Requests counts trace members of this priority; Admitted excludes
	// backlog rejections; Completed excludes failed batches.
	Requests  int
	Admitted  int
	Completed int

	// Queueing delay — batch execution start minus request arrival — over
	// this priority's completed requests.
	DelayMeanSec float64
	DelayP50Sec  float64
	DelayP95Sec  float64
	DelayP99Sec  float64

	// PreemptedJobs counts evictions of this priority's jobs from an
	// unstarted batch (each was re-enqueued and re-ran).
	PreemptedJobs int
	// DeadlineMisses counts completed requests that started after their
	// deadline.
	DeadlineMisses int
}

// Summary is the outcome of draining a timestamped trace through a fleet.
type Summary struct {
	Policy Policy

	// Requests counts the input trace; Admitted + Rejected == Requests, and
	// Admitted == Completed + Failed.
	Requests  int
	Admitted  int
	Completed int

	// RejectedJobs were turned away at admission (backlog cap); FailedJobs
	// were admitted but failed terminally — no pipeline could place their
	// batch, or (with faults) its retry budget ran out. A batch settles
	// once, so a job that fails, retries, and fails again appears in
	// FailedJobIDs exactly once, and FailedJobs == len(FailedJobIDs) counts
	// distinct jobs: Admitted == Completed + FailedJobs always balances.
	RejectedJobs   int
	RejectedJobIDs []int
	FailedBatches  int
	FailedJobs     int
	FailedJobIDs   []int

	// RetriedBatches/RetriedJobs count fault-failed attempts that were
	// re-dispatched under the retry policy (a batch retried twice counts
	// twice). Retried work that eventually completes is in Completed;
	// only retry-budget exhaustion moves it to Failed.
	RetriedBatches int
	RetriedJobs    int
	// FailedOverBatches/FailedOverJobs count queued-ahead batches evicted
	// from a failing or quarantined pipeline and re-dispatched elsewhere
	// (displaced, never lost — the fault-path analog of preemption).
	FailedOverBatches int
	FailedOverJobs    int
	// FaultsInjected counts injector faults that fired (fail-stops and
	// wear-outs); Quarantines counts circuit-breaker trips across the
	// fleet.
	FaultsInjected int
	Quarantines    int
	// DegradedBatches/DegradedJobs count work a lossy tier served while
	// every exact pipeline was down or quarantined — the graceful
	// degradation path. Degraded jobs complete and count in Completed.
	DegradedBatches int
	DegradedJobs    int

	// Batches counts settled batch outcomes (completions and terminal
	// failures). Fault-aborted attempts appear in Assignments but not
	// here — their batch settles exactly once.
	Batches int
	// MakespanSec is the time from the first arrival to the completion of
	// the last batch, so traces whose timestamps carry an offset (e.g.
	// seconds-of-day recordings) do not dilute throughput or utilization.
	// Assignment Start/FinishSec stay on the absolute trace clock.
	MakespanSec  float64
	OutputTokens int64

	// Queueing delay — batch execution start minus request arrival — over
	// completed requests.
	DelayMeanSec float64
	DelayP50Sec  float64
	DelayP95Sec  float64
	DelayP99Sec  float64

	// PreemptedBatches/PreemptedJobs count batch-boundary evictions: work
	// displaced by a higher-priority deadline and re-enqueued. Preempted
	// jobs still complete (they are not failures), so they appear in
	// Completed too.
	PreemptedBatches int
	PreemptedJobs    int
	// DeadlineMisses counts completed requests that started after their
	// arrival + DeadlineSec budget.
	DeadlineMisses int

	// PerClassSec attributes execution seconds to request classes,
	// including seconds burned by fault-aborted attempts.
	PerClassSec map[string]float64
	// PerPriority attributes scheduling outcomes per priority class, most
	// urgent first. Single-priority (pure offline) traces have one entry.
	PerPriority []PriorityStats
	// Pipelines attributes work, cost and energy per fleet member.
	Pipelines []PipelineStats
	// Assignments records every batch's routing decision, in dispatch
	// order, for policy comparisons. Evicted (preempted) batches are not
	// listed; their re-dispatches are.
	Assignments []Assignment

	// TotalCostUSD and TotalEnergyJ sum the per-pipeline attributions.
	TotalCostUSD float64
	TotalEnergyJ float64
	// TotalWriteBytes sums per-pipeline flash write volume — endurance
	// next to latency and cost in the same run output.
	TotalWriteBytes float64
}

// Throughput returns output tokens per second over the makespan.
func (s Summary) Throughput() float64 {
	if s.MakespanSec <= 0 {
		return 0
	}
	return float64(s.OutputTokens) / s.MakespanSec
}

// PriorityByClass returns the stats entry for one priority class.
func (s Summary) PriorityByClass(priority int) (PriorityStats, bool) {
	for _, ps := range s.PerPriority {
		if ps.Priority == priority {
			return ps, true
		}
	}
	return PriorityStats{}, false
}

// summarize folds a drained loop's schedule into the Summary the loop
// counted into: each live slot, in dispatch order, becomes an Assignment,
// and time, tokens, cost and energy are attributed per pipeline and
// queueing delay per priority class. The makespan measures from the
// trace's first arrival. fracs parallels asgs with each attempt's
// performed-write fraction (1 except for attempts a fail-stop killed
// mid-run).
func summarize(l *eventLoop) Summary {
	asgs := make([]Assignment, 0, len(l.order)-l.dead)
	fracs := make([]float64, 0, len(l.order)-l.dead)
	for _, sl := range l.order {
		if sl == nil {
			continue // evicted
		}
		// Failed slots (pipe -1) have no report, times or write fraction.
		a := Assignment{
			Batch: sl.b, Pipeline: sl.pipe,
			StartSec: sl.start, FinishSec: sl.finish,
			Aborted: sl.aborted, Reason: sl.reason,
		}
		if sl.rep != nil {
			a.Report = *sl.rep
		}
		asgs = append(asgs, a)
		fracs = append(fracs, sl.writeFrac)
	}

	cfg, reqs, s := l.cfg, l.trace, l.sum
	startSec := reqs[0].ArrivalSec
	s.RejectedJobs = len(l.rejected)
	s.Assignments = asgs
	for i, p := range cfg.Fleet {
		ps := &s.Pipelines[i]
		ps.Name = p.Name
		ps.WearOut = math.IsInf(l.d.health[i].downUntil, 1)
		s.FaultsInjected += ps.Faults
		s.Quarantines += ps.Quarantines
	}

	// One entry per priority, most urgent first, counted from the interned
	// queue keys; prioIndex finds a priority's entry.
	var prios []PriorityStats
	for _, ks := range l.keys {
		prios = append(prios, PriorityStats{Priority: ks.key.priority})
	}
	slices.SortFunc(prios, func(a, b PriorityStats) int { return cmp.Compare(b.Priority, a.Priority) })
	prios = slices.CompactFunc(prios, func(a, b PriorityStats) bool { return a.Priority == b.Priority })
	prioIndex := func(prio int) int {
		i, _ := slices.BinarySearchFunc(prios, prio, func(ps PriorityStats, p int) int { return cmp.Compare(p, ps.Priority) })
		return i
	}
	for _, ks := range l.keys {
		ps := &prios[prioIndex(ks.key.priority)]
		ps.Requests += ks.requests
		ps.Admitted += ks.requests - ks.rejected
	}
	for prio, jobs := range l.preempted {
		prios[prioIndex(prio)].PreemptedJobs = jobs
	}
	s.RejectedJobIDs = l.rejected

	// delays lists every completed request's queueing delay in dispatch
	// order; each completed batch's members are the run delays[lo:hi] of
	// priority entry pi.
	type delayRun struct{ pi, lo, hi int }
	delays := make([]float64, 0, len(reqs))
	var runs []delayRun
	devices := make([]int, len(cfg.Fleet))
	for ai, a := range asgs {
		n := len(a.Batch.JobIDs)
		if a.Pipeline < 0 {
			// Terminal failure: a batch settles once (fail-retry-fail is
			// one failure), so each job fails at most once.
			s.Batches++
			s.FailedBatches++
			s.FailedJobIDs = append(s.FailedJobIDs, a.Batch.JobIDs...)
			continue
		}
		ps := &s.Pipelines[a.Pipeline]
		sec := a.ExecSec()
		p := cfg.Fleet[a.Pipeline]
		// Every attempt spends time, dollars and flash writes on its class;
		// one a fail-stop killed wrote only fracs[ai] (1 for all others).
		ps.BusySec += sec
		s.PerClassSec[a.Batch.Class.Name] += sec
		ps.WriteBytes += float64(batchWriteBytes(&a.Report, &a.Batch) * fracs[ai])
		if a.Report.Devices > devices[a.Pipeline] {
			devices[a.Pipeline] = a.Report.Devices
		}
		ps.CostUSD += float64(p.USDPerHour / 3600 * sec)
		if fin := a.FinishSec - startSec; fin > s.MakespanSec {
			s.MakespanSec = fin
		}
		if a.Aborted {
			continue // no job completed here: the batch settles in a later assignment
		}
		s.Batches++
		ps.Batches++
		ps.Jobs += n
		toks := int64(n) * int64(a.Batch.Class.Output)
		ps.OutputTokens += toks
		s.OutputTokens += toks
		if p.Energy != nil {
			eb, err := p.Energy(a.Report)
			if err != nil {
				if ps.EnergyErr == "" {
					ps.EnergyErr = err.Error()
				}
			} else {
				ps.EnergyJ += float64(eb.Total() * float64(toks))
			}
		}
		pi := prioIndex(a.Batch.Priority)
		pst := &prios[pi]
		pst.Completed += n
		runs = append(runs, delayRun{pi: pi, lo: len(delays), hi: len(delays) + n})
		for i, arr := range a.Batch.Arrivals {
			delays = append(delays, a.StartSec-arr)
			if d := a.Batch.Deadlines[i]; d > 0 && a.StartSec > d {
				pst.DeadlineMisses++
				s.DeadlineMisses++
			}
		}
	}
	s.FailedJobs = len(s.FailedJobIDs)
	s.Admitted = s.Requests - s.RejectedJobs
	s.Completed = s.Admitted - s.FailedJobs
	// IDs accumulate in scheduling order (rejections by arrival, failures
	// by dispatch); emit them sorted so consumers and golden files see one
	// canonical order.
	sort.Ints(s.RejectedJobIDs)
	sort.Ints(s.FailedJobIDs)
	for i := range s.Pipelines {
		ps := &s.Pipelines[i]
		if s.MakespanSec > 0 {
			ps.Utilization = ps.BusySec / s.MakespanSec
		}
		if ps.BusySec > 0 {
			ps.WritePressureBps = ps.WriteBytes / ps.BusySec
		}
		if devices[i] > 0 {
			ps.WearPct = 100 * ps.WriteBytes / (float64(devices[i]) * endurance.PBWBytes(endurance.DefaultPBW))
		}
		s.TotalCostUSD += ps.CostUSD
		s.TotalEnergyJ += ps.EnergyJ
		s.TotalWriteBytes += ps.WriteBytes
	}

	// Per-priority delays: when one priority completed every request, its
	// statistics are the overall ones. Otherwise each priority's runs are
	// copied, in dispatch order, into its own part of one slab (a stable
	// partition by priority) before delayStats reorders delays.
	var byPrio []float64
	if !slices.ContainsFunc(prios, func(ps PriorityStats) bool { return ps.Completed == len(delays) }) {
		byPrio = make([]float64, len(delays))
		next := make([]int, len(prios))
		for i, off := 1, 0; i < len(prios); i++ {
			off += prios[i-1].Completed
			next[i] = off
		}
		for _, r := range runs {
			next[r.pi] += copy(byPrio[next[r.pi]:], delays[r.lo:r.hi])
		}
	}
	cfg.Telemetry.finalize(s, delays) // before delayStats reorders delays
	s.DelayMeanSec, s.DelayP50Sec, s.DelayP95Sec, s.DelayP99Sec = delayStats(delays)
	for i := range prios {
		ps := &prios[i]
		if ps.Completed == len(delays) {
			ps.DelayMeanSec, ps.DelayP50Sec, ps.DelayP95Sec, ps.DelayP99Sec = s.DelayMeanSec, s.DelayP50Sec, s.DelayP95Sec, s.DelayP99Sec
		} else {
			ps.DelayMeanSec, ps.DelayP50Sec, ps.DelayP95Sec, ps.DelayP99Sec = delayStats(byPrio[:ps.Completed])
			byPrio = byPrio[ps.Completed:]
		}
	}
	s.PerPriority = prios
	return s
}

// delayStats returns the mean (summed in the given order), p50, p95 and p99
// of delays, or zeros for none. The percentiles are selected in place, p99
// first and each next one inside the previous one's left part, which
// reorders delays.
func delayStats(delays []float64) (mean, p50, p95, p99 float64) {
	n := len(delays)
	if n == 0 {
		return 0, 0, 0, 0
	}
	k99, k95, k50 := stats.NearestRank(n, 99), stats.NearestRank(n, 95), stats.NearestRank(n, 50)
	mean = stats.Mean(delays)
	p99 = stats.Select(delays, k99)
	p95 = stats.Select(delays[:k99+1], k95)
	p50 = stats.Select(delays[:k95+1], k50)
	return mean, p50, p95, p99
}

// batchWriteBytes estimates the physical flash bytes written executing a
// batch of b's jobs from the engine report's write accounting: ceil(n/batch)
// passes, each writing the prefill KV spill plus the per-step decode
// writeback over the class's decode steps. The tail pass is charged at the
// full-size report's rate, consistent with execSec's pass accounting.
func batchWriteBytes(rep *pipeline.Report, b *BatchJob) float64 {
	if rep.Batch < 1 {
		return 0
	}
	n := len(b.JobIDs)
	passes := float64((n + rep.Batch - 1) / rep.Batch)
	steps := b.Class.Output - 1
	if steps < 0 {
		steps = 0
	}
	return passes * (rep.PrefillWriteBytes + float64(rep.DecodeWriteBytesPerStep*float64(steps)))
}
