package cluster

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// RunFunc simulates one batched request on a pipeline's engine. It must be
// a pure function of the request (engine.Engine.Run qualifies): report
// prewarming calls it from several goroutines.
type RunFunc func(pipeline.Request) pipeline.Report

// Pipeline is one member of a (possibly heterogeneous) fleet: an engine
// bound to a hardware point, plus the cost and energy metadata the
// dispatcher attributes work with.
type Pipeline struct {
	// Name labels the pipeline in summaries and assignments.
	Name string
	// Run evaluates one batch on the pipeline's engine.
	Run RunFunc
	// USDPerHour is the amortized hardware rate charged while the pipeline
	// executes batches; cheapest-feasible dispatch minimizes it × exec time.
	// Zero-cost pipelines make cheapest-feasible fall back to least-loaded
	// order through its tie-break.
	USDPerHour float64
	// Energy integrates the Fig. 17(a) model over one of the pipeline's
	// reports, in joules per generated token (engine.Engine.Energy
	// qualifies); nil skips energy attribution.
	Energy func(pipeline.Report) (energy.Breakdown, error)
	// EngineID groups pipelines that share one engine (same Run behavior):
	// pipelines with the same non-empty EngineID in one fleet read one
	// report per batch shape, so N identical hosts simulate each shape
	// once, not N times. Empty means this fleet member's own reports.
	EngineID string
	// Lossy marks an approximating tier (e.g. InstInfer-style sparse
	// attention): work landing here when every exact pipeline is down or
	// quarantined is counted as degraded service in the Summary. Purely
	// an accounting label — placement treats lossy pipelines like any
	// other fleet member.
	Lossy bool
}

// Policy selects how a released batch picks a pipeline.
type Policy string

// Dispatch policies. All consider only pipelines whose engine can place the
// batch (no OOM); a batch no pipeline can place fails as a unit.
const (
	// LeastLoaded assigns to the earliest-available pipeline (ties: lowest
	// index) — the classic list schedule.
	LeastLoaded Policy = "least-loaded"
	// CheapestFeasible assigns to the pipeline with the lowest dollar cost
	// for the batch (amortized $/h × execution seconds; ties: earliest
	// available, then lowest index) — the VM-selection-style policy that
	// routes each batch to the cheapest adequate backend.
	CheapestFeasible Policy = "cheapest-feasible"
	// FastestETA assigns to the pipeline that finishes the batch earliest
	// (max(release, free) + execution; ties: lowest index), trading cost for
	// completion time.
	FastestETA Policy = "fastest-eta"
)

// Policies returns the dispatch policies in documentation order.
func Policies() []Policy { return []Policy{LeastLoaded, CheapestFeasible, FastestETA} }

func (p Policy) valid() bool {
	switch p {
	case LeastLoaded, CheapestFeasible, FastestETA:
		return true
	}
	return false
}

// BatchJob is one formed batch released to the dispatcher at ReleaseSec.
// Arrivals carries the member requests' arrival times for queueing-delay
// accounting and Deadlines each member's absolute start deadline (0 =
// none), both parallel to JobIDs; Priority is the batch's priority class.
type BatchJob struct {
	Class      workload.Class
	JobIDs     []int
	Arrivals   []float64
	Deadlines  []float64
	Priority   int
	ReleaseSec float64
	// Attempt counts recovery re-dispatches after fault-failed attempts
	// (0 = first attempt); the event loop's retry path maintains it.
	Attempt int
}

// Assignment is the dispatch outcome for one batch — with faults enabled,
// for one *attempt* of a batch: a batch the injector fails mid-flight
// yields an Aborted assignment per consumed attempt plus either a
// completing assignment (a later retry succeeded) or a Pipeline == -1
// terminal failure (the retry budget ran out).
type Assignment struct {
	Batch BatchJob
	// Pipeline is the fleet index the batch ran on; -1 when no pipeline
	// could place it (the batch failed, Reason says why).
	Pipeline int
	Reason   string
	// Aborted marks an attempt a fault consumed without completing it: the
	// pipeline's time, dollars and (prorated) flash writes were spent, but
	// no member job finished here. Reason says what killed it.
	Aborted bool
	// StartSec/FinishSec bound the batch's execution on the simulated clock;
	// StartSec − ReleaseSec is time spent waiting for the pipeline.
	StartSec  float64
	FinishSec float64
	// Report is the engine's report at the batch's full size (the effective
	// batch may be smaller; extra passes including an exact tail pass are
	// already folded into FinishSec).
	Report pipeline.Report
}

// ExecSec returns the batch's execution time.
func (a Assignment) ExecSec() float64 { return a.FinishSec - a.StartSec }

// shape is a request shape: the (Input, Output) pair engine reports depend
// on. Class names do not enter it, so two names over one shape share
// reports.
type shape struct{ in, out int }

// reportTable holds one request shape's engine reports in rows indexed
// [size][pipeline], flattened as reps[size*len(fleet)+p]. The tables are a
// cluster run's only report memo: each (shape, size, engine) is simulated
// once, and pipelines sharing an EngineID point at one report. A nil entry
// has not been read yet. fits
// records, per size, the pipelines whose engine can place that many jobs
// (fitsFor), flattened the same way in pipeSet words. Only the event loop
// touches a table, so reading one takes no lock and hashes nothing.
type reportTable struct {
	in, out int
	reps    []*pipeline.Report
	fits    []uint64
}

// pipeSet is a set of fleet indices, one bit each.
type pipeSet []uint64

func (s pipeSet) add(p int) { s[p/64] |= 1 << (p % 64) }

func (s pipeSet) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// dispatcher is the policy layer under the event loop (Run): it scores and
// commits placements for the batches the loop forms. It is
// single-goroutine after prewarming, which keeps assignment deterministic.
type dispatcher struct {
	m      model.Config
	fleet  []Pipeline
	policy Policy
	freeAt []float64
	engKey []int // per fleet index, the first index sharing its EngineID
	// tables holds one reportTable per request shape. Callers look a table
	// up once (a queue when it is created, a closed batch once per
	// placement) and then read reports by index.
	tables map[shape]*reportTable

	// Recovery state, which the event loop maintains. inj is nil without a
	// non-empty fault injector; health then stays zero, so every pipeline
	// is always available, and a nil injector's SlowFactor is exactly 1,
	// which keeps the fault-free arithmetic bit-identical to a build
	// without faults.
	inj    *faults.Injector
	health []pipeHealth
	worn   pipeSet // the pipelines retired for good (downUntil = +Inf)
}

func newDispatcher(m model.Config, fleet []Pipeline, policy Policy) (*dispatcher, error) {
	if len(fleet) == 0 {
		return nil, fmt.Errorf("cluster: empty fleet")
	}
	for i, p := range fleet {
		if p.Run == nil {
			return nil, fmt.Errorf("cluster: pipeline %d (%s) has no engine", i, p.Name)
		}
		if p.USDPerHour < 0 {
			return nil, fmt.Errorf("cluster: pipeline %d (%s) has negative rate %g $/h", i, p.Name, p.USDPerHour)
		}
	}
	if !policy.valid() {
		return nil, fmt.Errorf("cluster: unknown dispatch policy %q (known: %v)", policy, Policies())
	}
	engKey := make([]int, len(fleet))
	for i, p := range fleet {
		engKey[i] = i
		if p.EngineID != "" {
			engKey[i] = slices.IndexFunc(fleet, func(q Pipeline) bool { return q.EngineID == p.EngineID })
		}
	}
	return &dispatcher{
		m:      m,
		fleet:  fleet,
		policy: policy,
		freeAt: make([]float64, len(fleet)),
		engKey: engKey,
		tables: map[shape]*reportTable{},
		health: make([]pipeHealth, len(fleet)),
		worn:   make(pipeSet, (len(fleet)+63)/64),
	}, nil
}

// table returns the report table of c's request shape, creating it empty on
// first use.
func (d *dispatcher) table(c workload.Class) *reportTable {
	k := shape{c.Input, c.Output}
	t := d.tables[k]
	if t == nil {
		t = &reportTable{in: c.Input, out: c.Output}
		d.tables[k] = t
	}
	return t
}

// report returns the engine report for size jobs of t's shape on pipeline
// p; the report is shared and must not be mutated. A miss simulates once per
// engine, then every pipeline on that engine reads the same entry. Only the
// event loop calls it.
func (d *dispatcher) report(t *reportTable, p, size int) *pipeline.Report {
	nf := len(d.fleet)
	i := size*nf + p
	if i < len(t.reps) {
		if rep := t.reps[i]; rep != nil {
			return rep
		}
	} else {
		t.reps = append(t.reps, make([]*pipeline.Report, (size+1)*nf-len(t.reps))...)
	}
	row, eng := t.reps[size*nf:(size+1)*nf], d.engKey[p]
	if row[eng] == nil {
		rep := d.simulate(eng, t, size)
		row[eng] = &rep
	}
	row[p] = row[eng]
	return row[p]
}

// fitsFor returns the set of pipelines whose engine can place size jobs of
// t's shape (no OOM, effective batch ≥ 1), reading every pipeline's report
// at that size the first time, exactly as plan does. An empty set is
// re-derived from the already-read reports on each call, so an empty record
// needs no flag to tell it from an unfilled one.
func (d *dispatcher) fitsFor(t *reportTable, size int) pipeSet {
	w := len(d.worn)
	lo, hi := size*w, (size+1)*w
	if hi > len(t.fits) {
		t.fits = append(t.fits, make([]uint64, hi-len(t.fits))...)
	}
	set := pipeSet(t.fits[lo:hi])
	if set.empty() {
		for p := range d.fleet {
			if rep := d.report(t, p, size); !rep.OOM && rep.Batch >= 1 {
				set.add(p)
			}
		}
	}
	return set
}

// feasible reports whether a pipeline that has not worn out can place size
// jobs of t's shape: plan's feasible result, whatever the pipelines' clocks
// and repair windows.
func (d *dispatcher) feasible(t *reportTable, size int) bool {
	for i, fits := range d.fitsFor(t, size) {
		if fits&^d.worn[i] != 0 {
			return true
		}
	}
	return false
}

// idle reports whether some pipeline is free and in service at now. When
// none is, an idle-only plan places nothing: it only learns whether the
// batch is feasible.
func (d *dispatcher) idle(now float64) bool {
	for p, free := range d.freeAt {
		if free <= now && d.avail(p) <= now {
			return true
		}
	}
	return false
}

// retire takes pipeline p out of service for good (wear-out).
func (d *dispatcher) retire(p int) {
	d.health[p].downUntil = math.Inf(1)
	d.worn.add(p)
}

// simulate runs engine eng on size jobs of t's shape. Scheduling reads only
// scalar timing/capacity fields, so it skips the per-task timeline.
func (d *dispatcher) simulate(eng int, t *reportTable, size int) pipeline.Report {
	return d.fleet[eng].Run(pipeline.Request{Model: d.m, Batch: size, Context: t.in, OutputLen: t.out, NoTrace: true})
}

// prewarm simulates every distinct request shape among a trace's queue keys
// at the target batch size on every engine, in parallel before the
// sequential event loop starts; the loop then runs on the tables' reports
// for those dominant shapes, and odd tail sizes simulate lazily on the loop.
// Shapes deduplicate through the report tables before crossing the fleet
// (keys that differ only in priority or class name share a shape), and
// pipelines sharing an EngineID simulate each shape once, so each work item
// writes its own slot of a table sized beforehand and needs no lock. Results
// are identical with or without prewarming — it only moves pure
// computations off the loop.
func (d *dispatcher) prewarm(keys []keyState, size int) {
	type work struct {
		t   *reportTable
		eng int
	}
	nf := len(d.fleet)
	var todo []work
	for _, k := range keys {
		known := len(d.tables)
		t := d.table(k.key.class)
		if len(d.tables) == known {
			continue // the shape is already crossed with the fleet
		}
		t.reps = make([]*pipeline.Report, (size+1)*nf)
		for p, eng := range d.engKey {
			if eng == p {
				todo = append(todo, work{t, eng})
			}
		}
	}
	tensor.ParallelFor(len(todo), runtime.GOMAXPROCS(0), func(i int) {
		w := todo[i]
		rep := d.simulate(w.eng, w.t, size)
		w.t.reps[size*nf+w.eng] = &rep
	})
}

// execSec returns the execution time for n jobs given the engine's
// (possibly shrunken) report: ⌊n/batch⌋ full passes at the effective batch,
// plus the remainder as a smaller tail pass simulated at its exact size —
// not rounded up to a full-size pass (the ROADMAP's per-pass batch-shrink
// item). A tail the engine shrinks again is charged integral passes at the
// tail report's effective batch; an infeasible tail report (which a
// monotone engine never produces) falls back to one full-size pass.
func (d *dispatcher) execSec(p int, t *reportTable, n int, rep *pipeline.Report) float64 {
	full := n / rep.Batch
	tail := n % rep.Batch
	sec := float64(float64(full) * rep.TotalSec(t.out))
	if tail > 0 {
		tr := d.report(t, p, tail)
		if tr.OOM || tr.Batch < 1 {
			sec += rep.TotalSec(t.out)
		} else {
			passes := (tail + tr.Batch - 1) / tr.Batch
			sec += float64(float64(passes) * tr.TotalSec(t.out))
		}
	}
	return sec
}

// placement is a planned (not yet committed) pipeline choice for one batch.
// p is -1 when no pipeline could take the batch; reason then says why.
// degraded marks a pick that landed on a lossy tier only because every
// exact (non-lossy) candidate was down or quarantined.
type placement struct {
	p        int
	rep      *pipeline.Report
	sec      float64
	start    float64
	reason   string
	degraded bool
}

// avail returns when pipeline p next accepts work: the later of its
// downtime and quarantine ends (+Inf once permanently worn out; 0 for a
// pipeline that never failed).
func (d *dispatcher) avail(p int) float64 {
	return max(d.health[p].downUntil, d.health[p].quarUntil)
}

// plan picks a pipeline per the policy for n jobs of t's shape released at
// release, without committing anything: the pipeline clocks are untouched
// until the event loop commits the slot (commitSlot), which must happen
// before any further planning. With idleOnly, only pipelines free at now
// qualify — the continuous-batching variant, where batches never queue
// ahead on a busy pipeline. A failed plan (p == -1) carries the first
// engine's refusal reason. feasible reports whether any fleet member that
// has not permanently failed — busy, down, or quarantined included — could
// ever place the batch; false means the batch fails as a unit. nextAvail is
// the earliest re-admission instant among capacity-feasible pipelines that
// are temporarily out of service (+Inf when none is): when pl.p == -1 with
// feasible == true, planning again at nextAvail (or, idle-only, at the next
// pipeline-free or repair event) makes progress.
func (d *dispatcher) plan(t *reportTable, n int, release float64, idleOnly bool, now float64) (pl placement, feasible bool, nextAvail float64) {
	best := -1
	var bestRep *pipeline.Report
	var bestSec, bestKey, bestTie, bestStart float64
	var firstReason, deadReason string
	nextAvail = math.Inf(1)
	exactCandidate, exactBlocked := false, false
	for p := range d.fleet {
		rep := d.report(t, p, n)
		if rep.OOM || rep.Batch < 1 {
			if firstReason == "" {
				firstReason = rep.Reason
			}
			continue
		}
		avail := d.avail(p)
		if math.IsInf(avail, 1) {
			// Permanently failed (wear-out): can never place anything again.
			if deadReason == "" {
				deadReason = fmt.Sprintf("pipeline %s permanently failed", d.fleet[p].Name)
			}
			if !d.fleet[p].Lossy {
				exactBlocked = true
			}
			continue
		}
		feasible = true
		if avail > now {
			// Down or quarantined: no new work until re-admission.
			if avail < nextAvail {
				nextAvail = avail
			}
			if !d.fleet[p].Lossy {
				exactBlocked = true
			}
			continue
		}
		if idleOnly && d.freeAt[p] > now {
			continue // busy: continuous batching never queues behind it
		}
		if !d.fleet[p].Lossy {
			exactCandidate = true
		}
		start := release
		if d.freeAt[p] > start {
			start = d.freeAt[p]
		}
		sec := float64(d.execSec(p, t, n, rep) * d.inj.SlowFactor(p, start))
		var key, tie float64
		switch d.policy {
		case LeastLoaded:
			key, tie = d.freeAt[p], 0
		case CheapestFeasible:
			key, tie = d.fleet[p].USDPerHour/3600*sec, d.freeAt[p]
		case FastestETA:
			key, tie = start+sec, 0
		}
		if best < 0 || key < bestKey || (key == bestKey && tie < bestTie) {
			best, bestRep, bestSec, bestKey, bestTie, bestStart = p, rep, sec, key, tie, start
		}
	}
	if best < 0 {
		reason := firstReason
		if reason == "" {
			reason = deadReason
		}
		if reason == "" {
			reason = "no feasible pipeline"
		}
		return placement{p: -1, reason: reason}, feasible, nextAvail
	}
	pl = placement{p: best, rep: bestRep, sec: bestSec, start: bestStart}
	// Degraded service: the pick landed on a lossy tier while every exact
	// pipeline that could serve this batch is down, quarantined, or worn
	// out.
	pl.degraded = d.fleet[best].Lossy && !exactCandidate && exactBlocked
	return pl, true, nextAvail
}
