// Package faults is the deterministic fault model of the cluster scheduler:
// a simulated-clock injector that schedules pipeline fail-stop windows,
// transient batch errors, straggler slowdowns and SSD wear-out budgets —
// the failure vocabulary of weeks-long offline batches on cheap
// near-storage hardware, where device loss and gray failures are
// first-class events rather than exceptions.
//
// Everything is deterministic: scheduled events are fixed timestamps,
// transient errors draw from a PRNG seeded through the plan (never the
// wall clock or the global rand source), and slowdown windows are pure
// functions of simulated time. Two runs with the same plan and trace
// observe the same faults in the same order. An empty plan is
// indistinguishable from no injector at all — the cluster's fault-parity
// property test pins that contract bit-for-bit.
//
// The injector only *decides* faults; reacting to them (retries, backoff,
// quarantine, failover, degradation) is the cluster's recovery layer.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Kind names one injectable fault class.
type Kind string

// The registered fault kinds.
const (
	// FailStop takes a pipeline down at AtSec and repairs it DurationSec
	// later: in-flight work on the pipeline is killed and queued work must
	// fail over. The crash-and-reboot of a near-storage host.
	FailStop Kind = "fail-stop"
	// Transient is a probabilistic per-batch execution error (a gray
	// failure: the batch burns its execution time, produces nothing, and
	// is eligible for retry). Configured by Plan.TransientProb rather than
	// scheduled events; a Transient Event raises the probability on one
	// pipeline instead.
	Transient Kind = "transient"
	// Straggler multiplies a pipeline's service time by Factor for
	// DurationSec starting at AtSec — the slow-but-alive device that
	// stretches tails without ever failing.
	Straggler Kind = "straggler"
	// WearOut permanently fail-stops a pipeline once its cumulative flash
	// write volume crosses Plan.WearBudgetBytes (or the Event's
	// BudgetBytes override): the endurance budget of §6.6 acted on, not
	// just reported. There is no repair — worn-out flash stays dead.
	WearOut Kind = "wear-out"
)

// Kinds returns the registered fault kinds in documentation order.
func Kinds() []Kind { return []Kind{FailStop, Transient, Straggler, WearOut} }

// Valid reports whether k names a registered fault kind.
func (k Kind) Valid() bool {
	for _, known := range Kinds() {
		if k == known {
			return true
		}
	}
	return false
}

// Event is one scheduled fault on the simulated clock.
type Event struct {
	Kind Kind
	// Pipeline is the fleet index the fault targets.
	Pipeline int
	// AtSec is the injection instant (FailStop, Straggler, Transient).
	AtSec float64
	// DurationSec is the repair window (FailStop) or the slowdown window
	// (Straggler).
	DurationSec float64
	// Factor is the Straggler service-time multiplier (≥ 1), or the
	// per-pipeline transient-error probability for a Transient event.
	Factor float64
	// BudgetBytes overrides Plan.WearBudgetBytes for one pipeline
	// (WearOut events only; 0 keeps the plan-wide budget).
	BudgetBytes float64
}

func (e Event) validate(pipelines int) error {
	if !e.Kind.Valid() {
		return fmt.Errorf("faults: unknown fault kind %q (known: %v)", e.Kind, Kinds())
	}
	if e.Pipeline < 0 || e.Pipeline >= pipelines {
		return fmt.Errorf("faults: %s event targets pipeline %d, fleet has %d", e.Kind, e.Pipeline, pipelines)
	}
	if e.AtSec < 0 || math.IsInf(e.AtSec, 0) || math.IsNaN(e.AtSec) {
		return fmt.Errorf("faults: %s event time %g is not finite and ≥ 0", e.Kind, e.AtSec)
	}
	if e.DurationSec < 0 || math.IsInf(e.DurationSec, 0) || math.IsNaN(e.DurationSec) {
		return fmt.Errorf("faults: %s event duration %g is not finite and ≥ 0", e.Kind, e.DurationSec)
	}
	switch e.Kind {
	case Straggler:
		if e.Factor < 1 || math.IsInf(e.Factor, 0) || math.IsNaN(e.Factor) {
			return fmt.Errorf("faults: straggler factor %g must be finite and ≥ 1", e.Factor)
		}
		if e.DurationSec == 0 {
			return fmt.Errorf("faults: straggler window needs a duration > 0")
		}
	case Transient:
		if e.Factor < 0 || e.Factor > 1 || math.IsNaN(e.Factor) {
			return fmt.Errorf("faults: transient probability %g must be in [0, 1]", e.Factor)
		}
	case WearOut:
		if e.BudgetBytes < 0 || math.IsInf(e.BudgetBytes, 0) || math.IsNaN(e.BudgetBytes) {
			return fmt.Errorf("faults: wear budget %g must be finite and ≥ 0", e.BudgetBytes)
		}
	}
	return nil
}

// Plan describes every fault a run will observe. The zero value schedules
// nothing: an injector built from it is inert and the cluster behaves
// bit-identically to running with no injector at all.
type Plan struct {
	// Seed seeds the injector's private PRNG (transient-error draws). The
	// simulated clock and the workload seed are independent of it.
	Seed int64
	// Events are the scheduled faults (fail-stop and straggler windows,
	// per-pipeline transient probabilities, wear budget overrides).
	Events []Event
	// TransientProb is the fleet-wide probability that one batch execution
	// fails transiently (0 disables; per-pipeline Transient events
	// override).
	TransientProb float64
	// WearBudgetBytes caps every pipeline's cumulative flash writes; the
	// write that crosses the budget permanently fail-stops the pipeline
	// (0 = unlimited). Per-pipeline WearOut events override it.
	WearBudgetBytes float64
}

func (p Plan) validate(pipelines int) error {
	if p.TransientProb < 0 || p.TransientProb > 1 || math.IsNaN(p.TransientProb) {
		return fmt.Errorf("faults: transient probability %g must be in [0, 1]", p.TransientProb)
	}
	if p.WearBudgetBytes < 0 || math.IsInf(p.WearBudgetBytes, 0) || math.IsNaN(p.WearBudgetBytes) {
		return fmt.Errorf("faults: wear budget %g must be finite and ≥ 0", p.WearBudgetBytes)
	}
	for _, e := range p.Events {
		if err := e.validate(pipelines); err != nil {
			return err
		}
	}
	return nil
}

// window is one straggler slowdown interval on a pipeline.
type window struct {
	from, to float64
	factor   float64
}

// Injector is one run's instantiated fault model. It is bound to a fleet
// size and must be used from a single goroutine (the cluster event loop):
// transient draws advance its private PRNG in call order, which is exactly
// what makes them replayable.
type Injector struct {
	rng *rand.Rand

	schedule  []Event // fail-stop events, sorted (AtSec, Pipeline)
	slowdowns [][]window
	transient []float64 // per-pipeline transient probability
	wear      []float64 // per-pipeline wear budget bytes (0 = unlimited)

	empty bool
}

// New builds the injector for a fleet of the given size, validating the
// plan. A zero-value plan yields an inert injector (Empty reports true).
func New(plan Plan, pipelines int) (*Injector, error) {
	if pipelines < 1 {
		return nil, fmt.Errorf("faults: injector needs ≥ 1 pipeline, got %d", pipelines)
	}
	if err := plan.validate(pipelines); err != nil {
		return nil, err
	}
	in := &Injector{
		rng:       rand.New(rand.NewSource(plan.Seed)),
		slowdowns: make([][]window, pipelines),
		transient: make([]float64, pipelines),
		wear:      make([]float64, pipelines),
	}
	for p := range in.transient {
		in.transient[p] = plan.TransientProb
		in.wear[p] = plan.WearBudgetBytes
	}
	for _, e := range plan.Events {
		switch e.Kind {
		case FailStop:
			in.schedule = append(in.schedule, e)
		case Straggler:
			in.slowdowns[e.Pipeline] = append(in.slowdowns[e.Pipeline],
				window{from: e.AtSec, to: e.AtSec + e.DurationSec, factor: e.Factor})
		case Transient:
			in.transient[e.Pipeline] = e.Factor
		case WearOut:
			in.wear[e.Pipeline] = e.BudgetBytes
			if e.BudgetBytes == 0 {
				in.wear[e.Pipeline] = plan.WearBudgetBytes
			}
		}
	}
	sort.SliceStable(in.schedule, func(i, j int) bool {
		if in.schedule[i].AtSec != in.schedule[j].AtSec {
			return in.schedule[i].AtSec < in.schedule[j].AtSec
		}
		return in.schedule[i].Pipeline < in.schedule[j].Pipeline
	})
	for p := range in.slowdowns {
		sort.SliceStable(in.slowdowns[p], func(i, j int) bool {
			return in.slowdowns[p][i].from < in.slowdowns[p][j].from
		})
	}
	in.empty = len(in.schedule) == 0 && in.noSlowdowns() && in.noTransients() && in.noWear()
	return in, nil
}

func (in *Injector) noSlowdowns() bool {
	for _, ws := range in.slowdowns {
		if len(ws) > 0 {
			return false
		}
	}
	return true
}

func (in *Injector) noTransients() bool {
	for _, p := range in.transient {
		if p > 0 {
			return false
		}
	}
	return true
}

func (in *Injector) noWear() bool {
	for _, b := range in.wear {
		if b > 0 {
			return false
		}
	}
	return true
}

// Empty reports whether the injector schedules no fault of any kind. The
// cluster treats an empty injector exactly like a nil one — that identity
// is the fault-parity determinism contract.
func (in *Injector) Empty() bool { return in == nil || in.empty }

// FailStops returns the scheduled fail-stop events sorted by (time,
// pipeline); the slice is shared and must not be mutated.
func (in *Injector) FailStops() []Event {
	if in == nil {
		return nil
	}
	return in.schedule
}

// SlowFactor returns the service-time multiplier for work starting on
// pipeline p at the given simulated instant: the product of every straggler
// window covering it (1 when none do). A pure function of (p, at).
func (in *Injector) SlowFactor(p int, at float64) float64 {
	if in == nil || p < 0 || p >= len(in.slowdowns) {
		return 1
	}
	f := 1.0
	for _, w := range in.slowdowns[p] {
		if at >= w.from && at < w.to {
			f *= w.factor
		}
	}
	return f
}

// BatchFails draws whether one batch execution on pipeline p errors
// transiently. Draws advance the injector's PRNG, so call order matters —
// the single-goroutine event loop calls it once per committed batch, in
// dispatch order. A zero-probability pipeline never draws, keeping the PRNG
// stream (and therefore every later draw) independent of how much traffic
// healthy pipelines carry.
func (in *Injector) BatchFails(p int) bool {
	if in == nil || p < 0 || p >= len(in.transient) || in.transient[p] <= 0 {
		return false
	}
	return in.rng.Float64() < in.transient[p]
}

// WearBudgetBytes returns pipeline p's cumulative flash-write budget
// (0 = unlimited).
func (in *Injector) WearBudgetBytes(p int) float64 {
	if in == nil || p < 0 || p >= len(in.wear) {
		return 0
	}
	return in.wear[p]
}

// GenerateFailStops draws a deterministic fail-stop schedule for a fleet:
// per pipeline, exponential times between failures with mean mtbfSec and
// repair windows of exponential length with mean mttrSec, over [0,
// horizonSec). The MTBF clock excludes downtime, matching the usual
// definition. Each pipeline draws from its own (seed, pipeline)-derived
// stream, so one pipeline's failure history is independent of fleet size
// reorderings.
func GenerateFailStops(seed int64, pipelines int, horizonSec, mtbfSec, mttrSec float64) ([]Event, error) {
	if pipelines < 1 {
		return nil, fmt.Errorf("faults: schedule needs ≥ 1 pipeline, got %d", pipelines)
	}
	if mtbfSec <= 0 || math.IsInf(mtbfSec, 0) || math.IsNaN(mtbfSec) {
		return nil, fmt.Errorf("faults: MTBF %g must be finite and > 0", mtbfSec)
	}
	if mttrSec < 0 || math.IsInf(mttrSec, 0) || math.IsNaN(mttrSec) {
		return nil, fmt.Errorf("faults: MTTR %g must be finite and ≥ 0", mttrSec)
	}
	if horizonSec < 0 || math.IsInf(horizonSec, 0) || math.IsNaN(horizonSec) {
		return nil, fmt.Errorf("faults: horizon %g must be finite and ≥ 0", horizonSec)
	}
	var events []Event
	for p := 0; p < pipelines; p++ {
		rng := rand.New(rand.NewSource(seed + int64(p)*1_000_003))
		at := 0.0
		for {
			at += float64(rng.ExpFloat64() * mtbfSec)
			if at >= horizonSec {
				break
			}
			repair := float64(rng.ExpFloat64() * mttrSec)
			events = append(events, Event{Kind: FailStop, Pipeline: p, AtSec: at, DurationSec: repair})
			at += repair
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].AtSec != events[j].AtSec {
			return events[i].AtSec < events[j].AtSec
		}
		return events[i].Pipeline < events[j].Pipeline
	})
	return events, nil
}
