package cluster

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// faultFleet is telemetryFleet plus a lossy InstInfer-style backup tier —
// the degradation target when the exact pipelines are out of service.
func faultFleet() []Pipeline {
	fl := telemetryFleet()
	return append(fl, Pipeline{Name: "lossy", Run: constEngine(3), Lossy: true})
}

func mustInjector(t *testing.T, plan faults.Plan, pipelines int) *faults.Injector {
	t.Helper()
	in, err := faults.New(plan, pipelines)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// A fail-stop kills the running batch mid-flight; the batch retries after
// backoff, defers while the pipeline is down, and completes after repair.
// The aborted attempt's flash writes are prorated by its run fraction.
func TestFailStopKillsAndRetries(t *testing.T) {
	fleet := telemetryFleet()[1:] // just "slow": flashy(5) with write accounting
	cfg := Config{
		Model:     model.OPT30B,
		Fleet:     fleet,
		Policy:    LeastLoaded,
		Admission: Admission{MaxBatch: 1, MaxWaitSec: 0},
		Faults: mustInjector(t, faults.Plan{Events: []faults.Event{
			{Kind: faults.FailStop, Pipeline: 0, AtSec: 2.5, DurationSec: 20},
		}}, 1),
		Retry: DefaultRetryPolicy(),
	}
	s, err := Run(cfg, shortReqs(0))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 1 || s.FailedJobs != 0 {
		t.Fatalf("completed %d failed %d, want 1/0: %+v", s.Completed, s.FailedJobs, s)
	}
	if s.FaultsInjected != 1 || s.RetriedBatches != 1 || s.RetriedJobs != 1 {
		t.Errorf("faults %d retriedBatches %d retriedJobs %d, want 1/1/1",
			s.FaultsInjected, s.RetriedBatches, s.RetriedJobs)
	}
	if len(s.Assignments) != 2 {
		t.Fatalf("assignments %+v", s.Assignments)
	}
	killed, redo := s.Assignments[0], s.Assignments[1]
	if !killed.Aborted || killed.StartSec != 0 || killed.FinishSec != 2.5 {
		t.Errorf("killed attempt %+v", killed)
	}
	if killed.Reason != "killed by fail-stop" {
		t.Errorf("killed reason %q", killed.Reason)
	}
	// Backoff expires at 3.5 while the pipeline is down until 22.5, so the
	// retry defers to the repair instant and runs 22.5 → 27.5.
	if redo.Aborted || redo.StartSec != 22.5 || redo.FinishSec != 27.5 {
		t.Errorf("retried attempt %+v", redo)
	}
	if redo.Batch.Attempt != 1 {
		t.Errorf("retry attempt count %d, want 1", redo.Batch.Attempt)
	}
	// Writes: the killed attempt ran half its service time, so it charges
	// half a batch's volume; the successful retry charges a full one.
	perBatch := 1e9 + 1e6*99
	if want := 1.5 * perBatch; s.Pipelines[0].WriteBytes != want {
		t.Errorf("WriteBytes = %g, want %g", s.Pipelines[0].WriteBytes, want)
	}
	if s.Pipelines[0].Faults != 1 {
		t.Errorf("pipeline fault count %d, want 1", s.Pipelines[0].Faults)
	}
	if s.MakespanSec != 27.5 {
		t.Errorf("makespan %g, want 27.5", s.MakespanSec)
	}
}

// Transient errors exhaust the retry budget: fail-retry-fail settles as ONE
// terminal failure — the job appears once in FailedJobIDs (the dedupe
// guard), conservation balances, and the circuit breaker trips along the
// way.
func TestRetriesExhaustTerminalOnce(t *testing.T) {
	cfg := Config{
		Model:     model.OPT30B,
		Fleet:     []Pipeline{{Name: "p0", Run: constEngine(2)}},
		Policy:    LeastLoaded,
		Admission: Admission{MaxBatch: 1, MaxWaitSec: 0},
		Faults:    mustInjector(t, faults.Plan{Seed: 1, TransientProb: 1}, 1),
		Retry:     DefaultRetryPolicy(), // 3 retries, threshold 3
	}
	cfg.Retry.MaxRetries = 2
	s, err := Run(cfg, shortReqs(0))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 0 || s.FailedJobs != 1 || s.FailedBatches != 1 {
		t.Fatalf("completed %d failedJobs %d failedBatches %d, want 0/1/1",
			s.Completed, s.FailedJobs, s.FailedBatches)
	}
	if !reflect.DeepEqual(s.FailedJobIDs, []int{0}) {
		t.Errorf("FailedJobIDs = %v, want [0] exactly once", s.FailedJobIDs)
	}
	if s.Admitted != s.Completed+s.FailedJobs {
		t.Errorf("conservation broken: admitted %d, completed %d + failed %d",
			s.Admitted, s.Completed, s.FailedJobs)
	}
	// Initial attempt + 2 retries, all aborted; the settled outcome is the
	// single terminal failure.
	if s.RetriedBatches != 2 || s.Batches != 1 {
		t.Errorf("retriedBatches %d batches %d, want 2/1", s.RetriedBatches, s.Batches)
	}
	aborted := 0
	for _, a := range s.Assignments {
		if a.Aborted {
			aborted++
		}
	}
	if aborted != 3 {
		t.Errorf("aborted attempts %d, want 3", aborted)
	}
	// Three consecutive failures on one pipeline trip the breaker.
	if s.Quarantines != 1 || s.Pipelines[0].Quarantines != 1 {
		t.Errorf("quarantines %d/%d, want 1", s.Quarantines, s.Pipelines[0].Quarantines)
	}
}

// A straggler window stretches service time by its factor; no failures, no
// retries — just a slower pipeline while the window is open.
func TestStragglerStretchesService(t *testing.T) {
	cfg := Config{
		Model:     model.OPT30B,
		Fleet:     []Pipeline{{Name: "p0", Run: constEngine(2)}},
		Policy:    LeastLoaded,
		Admission: Admission{MaxBatch: 1, MaxWaitSec: 0},
		Faults: mustInjector(t, faults.Plan{Events: []faults.Event{
			{Kind: faults.Straggler, Pipeline: 0, AtSec: 0, DurationSec: 10, Factor: 3},
		}}, 1),
	}
	s, err := Run(cfg, shortReqs(0, 50))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 2 || s.FaultsInjected != 0 {
		t.Fatalf("summary %+v", s)
	}
	// First batch starts inside the window: 2 s × 3. Second starts at 50,
	// after it closed: native speed.
	if a := s.Assignments[0]; a.ExecSec() != 6 {
		t.Errorf("in-window exec %g, want 6", a.ExecSec())
	}
	if a := s.Assignments[1]; a.ExecSec() != 2 {
		t.Errorf("post-window exec %g, want 2", a.ExecSec())
	}
}

// Wear-out: the write that crosses a pipeline's endurance budget retires it
// permanently, and later work degrades to the lossy tier — counted as
// degraded service.
func TestWearOutDegradesToLossyTier(t *testing.T) {
	fleet := []Pipeline{telemetryFleet()[1]} // "slow": flashy(5)
	fleet = append(fleet, Pipeline{Name: "lossy", Run: constEngine(4), Lossy: true})
	perBatch := 1e9 + 1e6*99
	cfg := Config{
		Model:     model.OPT30B,
		Fleet:     fleet,
		Policy:    LeastLoaded,
		Admission: Admission{MaxBatch: 1, MaxWaitSec: 0},
		Faults:    mustInjector(t, faults.Plan{WearBudgetBytes: perBatch * 0.9}, 2),
		Retry:     DefaultRetryPolicy(),
	}
	s, err := Run(cfg, shortReqs(0, 20, 40))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 3 || s.FailedJobs != 0 {
		t.Fatalf("summary %+v", s)
	}
	slow, lossy := s.Pipelines[0], s.Pipelines[1]
	if !slow.WearOut || slow.Faults != 1 {
		t.Errorf("exact tier not retired: %+v", slow)
	}
	if slow.Batches != 1 {
		t.Errorf("exact tier ran %d batches after wear-out, want 1 total", slow.Batches)
	}
	if lossy.Batches != 2 {
		t.Errorf("lossy tier batches %d, want 2", lossy.Batches)
	}
	if s.DegradedBatches != 2 || s.DegradedJobs != 2 {
		t.Errorf("degraded %d batches / %d jobs, want 2/2", s.DegradedBatches, s.DegradedJobs)
	}
	if s.FaultsInjected != 1 {
		t.Errorf("FaultsInjected %d, want 1 (the wear-out)", s.FaultsInjected)
	}
}

// Preemption frees each evicted slot once its batch is re-dispatched, and a
// later placement reuses it while the completion event armed for its old
// batch is still in the heap. In this trace some of those stale events fall
// on the instant the slot's new batch finishes, so only the generation they
// carry marks them stale; acting on one would charge the slot's flash
// writes twice. Each writing pipeline's wear budget sits half a batch above
// what it writes, so a second charge would wear it out: the run must match
// the reference and wear nothing out.
func TestRecycledSlotSkipsStaleCompletion(t *testing.T) {
	cfg := Config{
		Model: model.OPT30B, Fleet: referenceFleet(), Policy: LeastLoaded,
		Admission: Admission{MaxBatch: 2, MaxWaitSec: 1, Preemption: true},
	}
	reqs := digestTrace(1, 80)
	// An unreachable budget arms the completion events without binding.
	plan := faults.Plan{Seed: 1, WearBudgetBytes: 1e15}
	cfg.Faults = mustInjector(t, plan, len(cfg.Fleet))
	loose, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if loose.PreemptedBatches == 0 {
		t.Fatal("the trace evicts nothing")
	}
	for p, ps := range loose.Pipelines {
		if ps.WriteBytes > 0 {
			plan.Events = append(plan.Events, faults.Event{Kind: faults.WearOut, Pipeline: p, BudgetBytes: ps.WriteBytes + 0.5e9})
		}
	}
	cfg.Faults = mustInjector(t, plan, len(cfg.Fleet))
	s := matchReference(t, cfg, mustInjector(t, plan, len(cfg.Fleet)), reqs)
	for p, ps := range s.Pipelines {
		if ps.WearOut || ps.WriteBytes != loose.Pipelines[p].WriteBytes {
			t.Errorf("%s: wear-out %t after %g bytes, want no wear-out after %g", ps.Name, ps.WearOut, ps.WriteBytes, loose.Pipelines[p].WriteBytes)
		}
	}
}

// Retry backoff doubles from BackoffSec per attempt and stops at
// BackoffMaxSec; a zero cap leaves it uncapped, and a cap below BackoffSec
// caps even the first retry.
func TestRetryBackoff(t *testing.T) {
	for _, tc := range []struct {
		name string
		rp   RetryPolicy
		want []float64 // attempts 1, 2, …
	}{
		{"no backoff", RetryPolicy{BackoffSec: 0, BackoffMaxSec: 60}, []float64{0, 0, 0}},
		{"default 1 s to 60 s", DefaultRetryPolicy(), []float64{1, 2, 4, 8, 16, 32, 60, 60}},
		{"uncapped", RetryPolicy{BackoffSec: 0.25}, []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128}},
		{"cap below base", RetryPolicy{BackoffSec: 5, BackoffMaxSec: 2}, []float64{2, 2, 2}},
		{"cap between doublings", RetryPolicy{BackoffSec: 3, BackoffMaxSec: 10}, []float64{3, 6, 10, 10}},
	} {
		for i, want := range tc.want {
			if got := tc.rp.backoffSec(i + 1); got != want {
				t.Errorf("%s: attempt %d backoff %g, want %g", tc.name, i+1, got, want)
			}
		}
	}
}

// Work arriving while the whole fleet is down defers — it neither fails nor
// vanishes — and runs once the pipeline is repaired.
func TestAllDownDefersUntilRepair(t *testing.T) {
	cfg := Config{
		Model:     model.OPT30B,
		Fleet:     []Pipeline{{Name: "p0", Run: constEngine(2)}},
		Policy:    LeastLoaded,
		Admission: Admission{MaxBatch: 1, MaxWaitSec: 0},
		Faults: mustInjector(t, faults.Plan{Events: []faults.Event{
			{Kind: faults.FailStop, Pipeline: 0, AtSec: 1, DurationSec: 30},
		}}, 1),
		Retry: DefaultRetryPolicy(),
	}
	s, err := Run(cfg, shortReqs(5))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 1 || s.FailedJobs != 0 || s.RetriedBatches != 0 {
		t.Fatalf("summary %+v", s)
	}
	a := s.Assignments[0]
	if a.StartSec != 31 || a.FinishSec != 33 {
		t.Errorf("deferred batch ran %g→%g, want 31→33 (repair instant)", a.StartSec, a.FinishSec)
	}
}

// Quarantined pipelines hand queued-ahead work to the rest of the fleet
// (failover), and are re-admitted when the quarantine expires.
func TestQuarantineFailsOverQueuedWork(t *testing.T) {
	// Pipeline 0 fails every batch transiently; pipeline 1 is clean and
	// slower. Close-at-admission queues work ahead on pipeline 0; once its
	// breaker trips, the queued-ahead slots must move to pipeline 1.
	cfg := Config{
		Model:  model.OPT30B,
		Fleet:  faultFleet(), // fast, slow(flashy), lossy
		Policy: LeastLoaded,
		Admission: Admission{
			MaxBatch: 1, MaxWaitSec: 0,
		},
		Faults: mustInjector(t, faults.Plan{Seed: 5,
			Events: []faults.Event{{Kind: faults.Transient, Pipeline: 0, Factor: 1}}}, 3),
		Retry: DefaultRetryPolicy(),
	}
	reqs := shortReqs(0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
	s, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Quarantines == 0 {
		t.Fatal("always-failing pipeline never quarantined")
	}
	if s.Completed+s.FailedJobs != s.Admitted {
		t.Fatalf("conservation broken: %+v", s)
	}
	// The clean pipelines absorbed the failed-over and retried work.
	if s.Pipelines[1].Jobs+s.Pipelines[2].Jobs != s.Completed {
		t.Errorf("completions not on healthy tiers: %+v", s.Pipelines)
	}
	if s.Pipelines[0].Jobs != 0 {
		t.Errorf("failing pipeline completed %d jobs, want 0", s.Pipelines[0].Jobs)
	}
}

// Invariant 1 (fault parity): an injector with zero scheduled faults
// produces a Summary bit-identical to no injector at all, across admission
// configurations — the determinism contract of the recovery layer.
func FuzzFaultParity(f *testing.F) {
	f.Add(int64(1), 12, 3, 4.0, 0, 0)
	f.Add(int64(42), 24, 4, 6.0, 8, 1)  // preemption
	f.Add(int64(7), 24, 2, 2.0, 6, 2)   // continuous batching
	f.Add(int64(99), 32, 4, 10.0, 5, 3) // both
	f.Add(int64(-3), 1, 1, 0.0, 1, 3)   // degenerate single-request trace
	f.Fuzz(func(t *testing.T, seed int64, n, maxBatch int, waitSec float64, backlog, flags int) {
		if n < 1 {
			n = 1
		}
		if n > 64 {
			n = 64
		}
		if maxBatch < 1 {
			maxBatch = 1
		}
		if maxBatch > 8 {
			maxBatch = 8
		}
		if waitSec < 0 || waitSec > 1e6 {
			waitSec = 5
		}
		if backlog < 0 {
			backlog = 0
		}
		if backlog > 64 {
			backlog = 64
		}
		cfg := Config{
			Model:  model.OPT30B,
			Fleet:  faultFleet(),
			Policy: LeastLoaded,
			Admission: Admission{
				MaxBatch:           maxBatch,
				MaxWaitSec:         waitSec,
				MaxBacklog:         backlog,
				Preemption:         flags&1 != 0,
				ContinuousBatching: flags&2 != 0,
			},
			Retry: DefaultRetryPolicy(),
		}
		reqs := parityTrace(seed, n)

		off, err := Run(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}

		empty, err := faults.New(faults.Plan{Seed: seed}, len(cfg.Fleet))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = empty
		on, err := Run(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(off, on) {
			t.Fatalf("empty injector changed the Summary:\noff: %+v\non:  %+v", off, on)
		}
	})
}

// Invariant 2 (job conservation): under arbitrary fail-stop schedules,
// transient error rates, stragglers and wear budgets, every admitted job
// settles exactly once — completed, terminally failed, or rejected. No job
// is lost, none is double-counted.
func FuzzJobConservation(f *testing.F) {
	f.Add(int64(1), 24, 3, 0, 300.0, 20.0, 0.1, 0.0)
	f.Add(int64(9), 32, 2, 1, 120.0, 40.0, 0.4, 6e9) // preemption + wear
	f.Add(int64(5), 40, 4, 2, 60.0, 10.0, 0.2, 0.0)  // continuous, frequent faults
	f.Add(int64(77), 48, 4, 3, 90.0, 30.0, 0.8, 3e9) // both, hostile error rate
	f.Add(int64(-8), 8, 1, 4, 500.0, 5.0, 0.0, 1e8)  // tiny wear budget, no transients
	f.Fuzz(func(t *testing.T, seed int64, n, maxBatch, flags int, mtbf, mttr, transProb, wearBudget float64) {
		if n < 1 {
			n = 1
		}
		if n > 48 {
			n = 48
		}
		if maxBatch < 1 {
			maxBatch = 1
		}
		if maxBatch > 6 {
			maxBatch = 6
		}
		if mtbf < 30 || mtbf > 1e4 || math.IsNaN(mtbf) {
			mtbf = 200
		}
		if mttr < 1 || mttr > 500 || math.IsNaN(mttr) {
			mttr = 25
		}
		if transProb < 0 || transProb > 0.9 || math.IsNaN(transProb) {
			transProb = 0.25
		}
		if wearBudget < 0 || wearBudget > 1e14 || math.IsNaN(wearBudget) {
			wearBudget = 0
		}
		if wearBudget > 0 && wearBudget < 1e8 {
			wearBudget = 1e8
		}
		fleet := faultFleet()
		reqs := parityTrace(seed, n)
		horizon := reqs[len(reqs)-1].ArrivalSec + 100

		schedule, err := faults.GenerateFailStops(seed, len(fleet), horizon, mtbf, mttr)
		if err != nil {
			t.Fatal(err)
		}
		events := append(schedule, faults.Event{
			Kind: faults.Straggler, Pipeline: 1, AtSec: 0, DurationSec: horizon / 2, Factor: 2,
		})
		inj, err := faults.New(faults.Plan{
			Seed:            seed,
			Events:          events,
			TransientProb:   transProb,
			WearBudgetBytes: wearBudget,
		}, len(fleet))
		if err != nil {
			t.Fatal(err)
		}

		retry := DefaultRetryPolicy()
		retry.MaxRetries = (flags >> 3) & 3
		cfg := Config{
			Model:  model.OPT30B,
			Fleet:  fleet,
			Policy: Policies()[((flags>>5)%3+3)%3],
			Admission: Admission{
				MaxBatch:           maxBatch,
				MaxWaitSec:         3,
				MaxBacklog:         24,
				Preemption:         flags&1 != 0,
				ContinuousBatching: flags&2 != 0,
			},
			Faults: inj,
			Retry:  retry,
		}
		s, err := Run(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		checkConservation(t, s, reqs)
	})
}

// checkConservation asserts job conservation: the Summary's bookkeeping
// balances, and every trace job settles exactly once — completed, failed
// terminally, or rejected. No job is lost, none is double-counted.
func checkConservation(t *testing.T, s Summary, reqs []Request) {
	t.Helper()
	if s.Requests != len(reqs) || s.Admitted != s.Requests-s.RejectedJobs {
		t.Fatalf("admission bookkeeping: %+v", s)
	}
	if s.Completed != s.Admitted-s.FailedJobs {
		t.Fatalf("completion bookkeeping: %+v", s)
	}

	// Every trace job settles exactly once across the three outcomes.
	settled := map[int]int{}
	for _, a := range s.Assignments {
		if a.Pipeline < 0 || a.Aborted {
			continue
		}
		for _, id := range a.Batch.JobIDs {
			settled[id]++
		}
	}
	if len(settled) != s.Completed {
		t.Fatalf("completed assignments cover %d jobs, Summary says %d", len(settled), s.Completed)
	}
	for _, id := range s.FailedJobIDs {
		settled[id]++
	}
	for _, id := range s.RejectedJobIDs {
		settled[id]++
	}
	for _, r := range reqs {
		switch settled[r.ID] {
		case 0:
			t.Fatalf("job %d lost: neither completed, failed, nor rejected\n%+v", r.ID, s)
		case 1:
			// settled exactly once
		default:
			t.Fatalf("job %d settled %d times\n%+v", r.ID, settled[r.ID], s)
		}
	}
	if !(s.MakespanSec >= 0) || math.IsInf(s.MakespanSec, 0) {
		t.Fatalf("makespan %g not finite", s.MakespanSec)
	}
}

// FuzzClusterAllModes drives every scheduling extension at once —
// preemption, continuous batching, fault injection with retries, and
// telemetry — and checks the contracts that must hold together: job
// conservation, a Summary bit-identical with telemetry off, sorted
// rejected/failed IDs, and a delay histogram counting exactly the
// completed jobs.
func FuzzClusterAllModes(f *testing.F) {
	f.Add(int64(1), 32, 3, 0, 120.0, 0.2)
	f.Add(int64(7), 48, 4, 1, 60.0, 0.5)
	f.Add(int64(-4), 12, 1, 2, 400.0, 0.0)
	f.Fuzz(func(t *testing.T, seed int64, n, maxBatch, policy int, mtbf, transProb float64) {
		n = 1 + mod(n, 48)
		maxBatch = 1 + mod(maxBatch, 6)
		if !(mtbf >= 30 && mtbf <= 1e4) {
			mtbf = 200
		}
		if !(transProb >= 0 && transProb <= 0.9) {
			transProb = 0.25
		}
		fleet := faultFleet()
		reqs := digestTrace(seed, n)
		events, err := faults.GenerateFailStops(seed, len(fleet), reqs[len(reqs)-1].ArrivalSec+100, mtbf, 20)
		if err != nil {
			t.Fatal(err)
		}
		plan := faults.Plan{Seed: seed, Events: events, TransientProb: transProb, WearBudgetBytes: 20e9}
		run := func(tel *Telemetry) Summary {
			t.Helper()
			s, err := Run(Config{
				Model:  model.OPT30B,
				Fleet:  fleet,
				Policy: Policies()[mod(policy, 3)],
				Admission: Admission{
					MaxBatch: maxBatch, MaxWaitSec: 2, MaxBacklog: 24,
					Preemption: true, ContinuousBatching: true,
				},
				Faults:    mustInjector(t, plan, len(fleet)), // fresh: the injector's draws are stateful
				Retry:     DefaultRetryPolicy(),
				Telemetry: tel,
			}, reqs)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		reg, stream := telemetry.NewRegistry(), telemetry.NewStream()
		defer stream.Close()
		s := run(NewTelemetry(reg, stream))
		checkConservation(t, s, reqs)
		if plain := run(nil); !reflect.DeepEqual(s, plain) {
			t.Fatalf("telemetry changed the Summary:\non:  %+v\noff: %+v", s, plain)
		}
		if !sort.IntsAreSorted(s.RejectedJobIDs) || !sort.IntsAreSorted(s.FailedJobIDs) {
			t.Fatalf("IDs not sorted: rejected %v, failed %v", s.RejectedJobIDs, s.FailedJobIDs)
		}
		if h := reg.Snapshot().Histograms["cluster.delay_sec"]; h.Count != int64(s.Completed) {
			t.Fatalf("delay histogram counts %d jobs, Summary completed %d", h.Count, s.Completed)
		}
	})
}

// A wear-out that leaves only busy pipelines still fails, at once, a ripe
// continuous batch that only the worn-out pipeline could place: it is not
// held until the busy pipeline frees. "big" places every shape and wears out
// at the end of its first batch, at 5; "small" OOMs on Long requests and is
// busy from 0 to 20. The digest pins the whole Summary, so a failure that
// moves later or out of dispatch order shows.
func TestWearOutFailsRipeBatchWhileFleetBusy(t *testing.T) {
	big := func(req pipeline.Request) pipeline.Report {
		return pipeline.Report{Batch: req.Batch, PrefillSec: 5, PrefillWriteBytes: 1e9}
	}
	small := func(req pipeline.Request) pipeline.Report {
		if req.Context > workload.Short.Input {
			return pipeline.Report{OOM: true}
		}
		return pipeline.Report{Batch: req.Batch, PrefillSec: 20}
	}
	fleet := []Pipeline{{Name: "big", Run: big}, {Name: "small", Run: small}}
	plan := faults.Plan{WearBudgetBytes: 0.5e9}
	cfg := Config{
		Model: model.OPT30B, Fleet: fleet, Policy: LeastLoaded,
		Admission: Admission{MaxBatch: 1, MaxWaitSec: 0, ContinuousBatching: true},
		Faults:    mustInjector(t, plan, len(fleet)),
		Retry:     DefaultRetryPolicy(),
	}
	reqs := []Request{
		{ID: 0, Class: workload.Long, ArrivalSec: 0},
		{ID: 1, Class: workload.Short, ArrivalSec: 0},
		{ID: 2, Class: workload.Long, ArrivalSec: 6},
		{ID: 3, Class: workload.Short, ArrivalSec: 7},
	}
	s := matchReference(t, cfg, mustInjector(t, plan, len(fleet)), reqs)
	if !s.Pipelines[0].WearOut {
		t.Fatal("big never wore out")
	}
	if len(s.FailedJobIDs) != 1 || s.FailedJobIDs[0] != 2 {
		t.Fatalf("failed jobs %v, want [2]", s.FailedJobIDs)
	}
	for _, a := range s.Assignments {
		if a.Pipeline < 0 && a.Batch.ReleaseSec != 6 {
			t.Errorf("Long request 2 failed with release %g, want 6 (its arrival)", a.Batch.ReleaseSec)
		}
	}
	if got, want := summaryDigest(t, s), "b5affafa3dc539ef04ebc7eed3e34139b33699d6b907856f2f20a0d9b46056a9"; got != want {
		t.Errorf("summary digest %s, recorded %s", got, want)
	}
}

// A zero-length quarantine disables the circuit breaker, as a threshold of
// zero does: tripping it would fail every queued-ahead batch over on each
// failed attempt and re-admit the pipeline at the same instant.
func TestZeroQuarantineDisablesBreaker(t *testing.T) {
	fleet := faultFleet()
	plan := faults.Plan{Seed: 3, TransientProb: 0.3}
	cfg := Config{
		Model: model.OPT30B, Fleet: fleet, Policy: LeastLoaded,
		Admission: Admission{MaxBatch: 2, MaxWaitSec: 1},
		Faults:    mustInjector(t, plan, len(fleet)),
		Retry:     RetryPolicy{MaxRetries: 3, BackoffSec: 1, BackoffMaxSec: 60, FailureThreshold: 1, QuarantineSec: 0},
	}
	reqs := digestTrace(3, 110)
	s := matchReference(t, cfg, mustInjector(t, plan, len(fleet)), reqs)
	if s.RetriedBatches == 0 {
		t.Fatal("no transient error fired, so the breaker was never tested")
	}
	if s.FailedOverBatches != 0 || s.Quarantines != 0 {
		t.Errorf("%d quarantines failed %d batches over, want none", s.Quarantines, s.FailedOverBatches)
	}
}
