package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// TimedRequest is one request with an arrival timestamp — the unit of work
// the cluster admission layer operates on. Offline backlogs are the special
// case where every arrival is 0, every priority is 0 and no deadline is set.
type TimedRequest struct {
	ID         int
	Class      Class
	ArrivalSec float64
	// Priority ranks scheduling urgency; higher values are served first.
	// 0 is the offline default, so untagged traces behave exactly as
	// before priorities existed.
	Priority int
	// DeadlineSec is the request's queueing budget: it should start
	// executing within DeadlineSec of its arrival. 0 means no deadline
	// (pure offline work). The scheduler treats deadlines as preemption
	// triggers, not admission guarantees — a missed deadline is reported,
	// never dropped.
	DeadlineSec float64
}

// StartDeadline returns the absolute time by which the request should start,
// or +Inf when it carries no deadline.
func (r TimedRequest) StartDeadline() float64 {
	if r.DeadlineSec <= 0 {
		return math.Inf(1)
	}
	return r.ArrivalSec + r.DeadlineSec
}

// positiveFinite reports whether x is finite and above zero. NaN fails
// every comparison, so a plain x <= 0 guard would let it through.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// PoissonArrivals returns n arrival timestamps of a homogeneous Poisson
// process with the given mean rate (requests/second): exponential
// inter-arrival gaps drawn from a seeded source, so the same seed always
// yields the same trace. The first arrival is the first gap, not 0.
func PoissonArrivals(seed int64, ratePerSec float64, n int) ([]float64, error) {
	if !positiveFinite(ratePerSec) {
		return nil, fmt.Errorf("workload: arrival rate must be finite and positive, got %g", ratePerSec)
	}
	if n < 1 {
		return nil, fmt.Errorf("workload: arrival count must be ≥ 1, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / ratePerSec
		out[i] = t
	}
	return out, nil
}

// UniformArrivals returns n arrival timestamps at a constant rate
// (requests/second): deterministic 1/rate spacing starting at 1/rate. It is
// the zero-variance reference process for the Poisson generator.
func UniformArrivals(ratePerSec float64, n int) ([]float64, error) {
	if !positiveFinite(ratePerSec) {
		return nil, fmt.Errorf("workload: arrival rate must be finite and positive, got %g", ratePerSec)
	}
	if n < 1 {
		return nil, fmt.Errorf("workload: arrival count must be ≥ 1, got %d", n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i+1) / ratePerSec
	}
	return out, nil
}

// MMPPArrivals returns n arrival timestamps of a two-state Markov-modulated
// Poisson process: the process alternates between a quiet state (rate
// quietRate, mean sojourn meanQuietSec) and a burst state (rate burstRate,
// mean sojourn meanBurstSec), with exponentially distributed sojourn times.
// It starts in the quiet state. The same seed always yields the same trace,
// so bursty-workload studies are reproducible run to run.
func MMPPArrivals(seed int64, quietRate, burstRate, meanQuietSec, meanBurstSec float64, n int) ([]float64, error) {
	if !positiveFinite(quietRate) || !positiveFinite(burstRate) {
		return nil, fmt.Errorf("workload: MMPP rates must be finite and positive, got %g and %g", quietRate, burstRate)
	}
	if !positiveFinite(meanQuietSec) || !positiveFinite(meanBurstSec) {
		return nil, fmt.Errorf("workload: MMPP mean sojourns must be finite and positive, got %g and %g", meanQuietSec, meanBurstSec)
	}
	if n < 1 {
		return nil, fmt.Errorf("workload: arrival count must be ≥ 1, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	rate := [2]float64{quietRate, burstRate}
	mean := [2]float64{meanQuietSec, meanBurstSec}
	state := 0
	t := 0.0
	left := rng.ExpFloat64() * mean[state] // time left in the current state
	out := make([]float64, 0, n)
	for len(out) < n {
		gap := rng.ExpFloat64() / rate[state]
		if gap < left {
			t += gap
			left -= gap
			out = append(out, t)
			continue
		}
		// The state flips before the next arrival: advance to the switch
		// point and redraw (both distributions are memoryless, so
		// discarding the stale gap preserves the process).
		t += left
		state = 1 - state
		left = rng.ExpFloat64() * mean[state]
	}
	return out, nil
}

// BurstyArrivals returns n arrivals of a day-night-style bursty process with
// the given long-run mean rate: a two-state MMPP spending 80% of its time in
// a quiet state at rate/4 and 20% in bursts at 4×rate (mean burst 10/rate
// seconds, mean quiet spell 40/rate), so the time-averaged rate equals
// ratePerSec while individual bursts arrive an order of magnitude faster
// than the quiet floor. Deterministic per seed.
func BurstyArrivals(seed int64, ratePerSec float64, n int) ([]float64, error) {
	if !positiveFinite(ratePerSec) {
		return nil, fmt.Errorf("workload: arrival rate must be finite and positive, got %g", ratePerSec)
	}
	return MMPPArrivals(seed, ratePerSec/4, 4*ratePerSec, 40/ratePerSec, 10/ratePerSec, n)
}

// Timed pairs a class trace with arrival timestamps (replaying a recorded
// trace, or attaching a generated arrival process to a generated mix).
// Timestamps must be non-negative; the result is sorted by arrival with IDs
// assigned in the original trace order, so replays are deterministic.
func Timed(classes []Class, arrivals []float64) ([]TimedRequest, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	if len(classes) != len(arrivals) {
		return nil, fmt.Errorf("workload: %d classes but %d arrival times", len(classes), len(arrivals))
	}
	out := make([]TimedRequest, len(classes))
	for i, c := range classes {
		if arrivals[i] < 0 || math.IsInf(arrivals[i], 0) || math.IsNaN(arrivals[i]) {
			return nil, fmt.Errorf("workload: arrival time %g for request %d is not finite and ≥ 0", arrivals[i], i)
		}
		out[i] = TimedRequest{ID: i, Class: c, ArrivalSec: arrivals[i]}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].ArrivalSec < out[j].ArrivalSec })
	return out, nil
}

// TimedTrace draws len(arrivals) request classes from the generator's mix
// and attaches the arrival timestamps — the one-call path from (seed, mix,
// arrival process) to a cluster-ready trace.
func (g *Generator) TimedTrace(arrivals []float64) ([]TimedRequest, error) {
	return Timed(g.Trace(len(arrivals)), arrivals)
}

// ClassByName resolves one of the §6.6 request classes ("Short", "Medium",
// "Long") for trace parsers.
func ClassByName(name string) (Class, bool) {
	for _, c := range Classes() {
		if c.Name == name {
			return c, true
		}
	}
	return Class{}, false
}
