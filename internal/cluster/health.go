package cluster

import (
	"fmt"
	"math"

	"repro/internal/endurance"
)

// RetryPolicy governs how the event loop recovers work that an injected
// fault failed: how many times a batch may retry, how its backoff grows,
// and when a repeatedly-failing pipeline is quarantined. It is consulted
// only when a fault injector is configured — without one nothing ever
// fails mid-flight, so the policy is inert.
//
// The zero value disables retries entirely (every failed attempt is
// terminal) and never quarantines; DefaultRetryPolicy returns the
// recommended starting point.
type RetryPolicy struct {
	// MaxRetries bounds re-dispatch attempts per batch after its first
	// failure. 0 means failed attempts are terminal.
	MaxRetries int
	// BackoffSec is the delay before the first retry; attempt k waits
	// BackoffSec × 2^(k−1), capped at BackoffMaxSec. Both are simulated
	// seconds — backoff is deterministic, never jittered, so replays are
	// bit-identical.
	BackoffSec    float64
	BackoffMaxSec float64
	// FailureThreshold trips the per-pipeline circuit breaker: after this
	// many consecutive failed attempts on one pipeline it is quarantined
	// for QuarantineSec (its queued-ahead work fails over to other
	// pipelines immediately). A FailureThreshold ≤ 0 or a zero
	// QuarantineSec disables the breaker.
	FailureThreshold int
	QuarantineSec    float64
}

// DefaultRetryPolicy is the recommended recovery configuration: 3 retries
// with 1 s → 60 s exponential backoff, and a 120 s quarantine after 3
// consecutive failures on one pipeline.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxRetries:       3,
		BackoffSec:       1,
		BackoffMaxSec:    60,
		FailureThreshold: 3,
		QuarantineSec:    120,
	}
}

func (rp RetryPolicy) validate() error {
	if rp.MaxRetries < 0 {
		return fmt.Errorf("cluster: retry policy max retries must be ≥ 0, got %d", rp.MaxRetries)
	}
	for _, v := range []struct {
		name string
		sec  float64
	}{
		{"backoff", rp.BackoffSec},
		{"backoff cap", rp.BackoffMaxSec},
		{"quarantine", rp.QuarantineSec},
	} {
		if v.sec < 0 || math.IsInf(v.sec, 0) || math.IsNaN(v.sec) {
			return fmt.Errorf("cluster: retry policy %s must be finite and ≥ 0, got %g", v.name, v.sec)
		}
	}
	return nil
}

// backoffSec returns the deterministic delay before retry attempt k ≥ 1:
// BackoffSec × 2^(k−1), capped at BackoffMaxSec. Scaling by a power of two
// is exact, so this equals doubling k−1 times.
func (rp RetryPolicy) backoffSec(attempt int) float64 {
	d := math.Ldexp(rp.BackoffSec, attempt-1)
	if rp.BackoffMaxSec > 0 && d > rp.BackoffMaxSec {
		return rp.BackoffMaxSec
	}
	return d
}

// pipeHealth is the recovery layer's per-pipeline state: fault downtime,
// circuit-breaker quarantine, and the wear budget whose exhaustion retires
// the pipeline permanently. The zero value is a healthy pipeline with
// unlimited endurance, which is exactly the injector-off configuration.
type pipeHealth struct {
	// downUntil is when the current fail-stop window ends (+Inf once the
	// pipeline wore out — permanent).
	downUntil float64
	// quarUntil is when the current circuit-breaker quarantine ends.
	quarUntil float64
	// consecFails counts consecutive failed attempts since the last
	// success or re-admission; reaching RetryPolicy.FailureThreshold trips
	// the breaker.
	consecFails int
	// wear is the pipeline's endurance allowance (nil = unlimited).
	wear *endurance.Budget
}
