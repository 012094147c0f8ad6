package cluster

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// constEngine completes any batch in totalSec (prefill-only report), never
// shrinking or OOMing.
func constEngine(totalSec float64) RunFunc {
	return func(req pipeline.Request) pipeline.Report {
		return pipeline.Report{Batch: req.Batch, PrefillSec: totalSec, StepSec: 0}
	}
}

func shortReqs(arrivals ...float64) []Request {
	out := make([]Request, len(arrivals))
	for i, t := range arrivals {
		out[i] = Request{ID: i, Class: workload.Short, ArrivalSec: t}
	}
	return out
}

// Admission semantics: a batch closes the instant it fills (release = that
// arrival), a partial batch closes at its oldest member's timeout, and the
// drain after the last arrival fires remaining timeouts.
func TestRunAdmissionTimeouts(t *testing.T) {
	cfg := Config{
		Model:     model.OPT30B,
		Fleet:     []Pipeline{{Name: "p0", Run: constEngine(2)}},
		Policy:    LeastLoaded,
		Admission: Admission{MaxBatch: 2, MaxWaitSec: 10},
	}
	s, err := Run(cfg, shortReqs(0, 1, 5))
	if err != nil {
		t.Fatal(err)
	}
	if s.Batches != 2 || s.FailedBatches != 0 || s.RejectedJobs != 0 {
		t.Fatalf("summary %+v", s)
	}
	a0, a1 := s.Assignments[0], s.Assignments[1]
	// Batch {0,1} fills at t=1 and runs 1→3.
	if a0.Batch.ReleaseSec != 1 || a0.StartSec != 1 || a0.FinishSec != 3 {
		t.Errorf("full batch timing %+v", a0)
	}
	// Batch {2} times out at 5+10=15 during the drain and runs 15→17.
	if a1.Batch.ReleaseSec != 15 || a1.StartSec != 15 || a1.FinishSec != 17 {
		t.Errorf("timeout batch timing %+v", a1)
	}
	if s.MakespanSec != 17 {
		t.Errorf("makespan %v, want 17", s.MakespanSec)
	}
	// Delays: job0 waits 1, job1 waits 0, job2 waits exactly MaxWaitSec.
	if s.DelayP50Sec != 1 || s.DelayP99Sec != 10 {
		t.Errorf("delay percentiles p50=%v p99=%v, want 1 and 10", s.DelayP50Sec, s.DelayP99Sec)
	}
	if got, want := s.DelayMeanSec, 11.0/3; math.Abs(got-want) > 1e-12 {
		t.Errorf("mean delay %v, want %v", got, want)
	}
	if s.OutputTokens != 3*int64(workload.Short.Output) {
		t.Errorf("tokens %d", s.OutputTokens)
	}
}

// A timeout must fire — at its deadline, not the observing arrival's time —
// before a later arrival is processed.
func TestRunTimeoutFiresBeforeLaterArrival(t *testing.T) {
	cfg := Config{
		Model:     model.OPT30B,
		Fleet:     []Pipeline{{Name: "p0", Run: constEngine(1)}},
		Policy:    LeastLoaded,
		Admission: Admission{MaxBatch: 4, MaxWaitSec: 2},
	}
	s, err := Run(cfg, shortReqs(0, 1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if s.Batches != 2 {
		t.Fatalf("got %d batches, want 2: %+v", s.Batches, s.Assignments)
	}
	if r := s.Assignments[0].Batch.ReleaseSec; r != 2 {
		t.Errorf("first batch released at %v, want deadline 2", r)
	}
	if got := s.Assignments[0].Batch.JobIDs; len(got) != 2 {
		t.Errorf("first batch jobs %v, want {0,1}", got)
	}
	if r := s.Assignments[1].Batch.ReleaseSec; r != 12 {
		t.Errorf("drained batch released at %v, want 12", r)
	}
}

// The three policies make different, explainable choices on a fleet with a
// fast-expensive and a slow-cheap pipeline.
func TestPoliciesDiffer(t *testing.T) {
	fleet := []Pipeline{
		{Name: "fast-expensive", Run: constEngine(1), USDPerHour: 3600}, // $1/s
		{Name: "slow-cheap", Run: constEngine(4), USDPerHour: 360},      // $0.1/s
	}
	reqs := shortReqs(0, 0, 0, 0, 0, 0)
	adm := Admission{MaxBatch: 2, MaxWaitSec: 1}
	run := func(p Policy) Summary {
		s, err := Run(Config{Model: model.OPT30B, Fleet: fleet, Policy: p, Admission: adm}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	ll := run(LeastLoaded)
	// Batches at release 0: p0 (tie→0, finish 1), p1 (0<1, finish 4), p0
	// again (1<4, finish 2).
	if ll.Pipelines[0].Batches != 2 || ll.Pipelines[1].Batches != 1 {
		t.Errorf("least-loaded split %d/%d, want 2/1", ll.Pipelines[0].Batches, ll.Pipelines[1].Batches)
	}
	if ll.MakespanSec != 4 {
		t.Errorf("least-loaded makespan %v, want 4", ll.MakespanSec)
	}

	cf := run(CheapestFeasible)
	// $0.40/batch on slow-cheap always beats $1.00 on fast-expensive.
	if cf.Pipelines[0].Batches != 0 || cf.Pipelines[1].Batches != 3 {
		t.Errorf("cheapest-feasible split %d/%d, want 0/3", cf.Pipelines[0].Batches, cf.Pipelines[1].Batches)
	}
	if cf.MakespanSec != 12 {
		t.Errorf("cheapest-feasible makespan %v, want 12", cf.MakespanSec)
	}
	if math.Abs(cf.TotalCostUSD-1.2) > 1e-9 || math.Abs(ll.TotalCostUSD-2.4) > 1e-9 {
		t.Errorf("costs cheapest=%v least-loaded=%v, want 1.2 and 2.4", cf.TotalCostUSD, ll.TotalCostUSD)
	}

	fe := run(FastestETA)
	// Queueing on the fast pipeline still beats 4 s on the slow one.
	if fe.Pipelines[0].Batches != 3 || fe.MakespanSec != 3 {
		t.Errorf("fastest-eta split %d batches on fast, makespan %v; want 3 and 3",
			fe.Pipelines[0].Batches, fe.MakespanSec)
	}
}

// Dispatch skips pipelines that cannot place a batch — an OOM report, or a
// non-OOM report with an effective batch below 1; a batch no pipeline can
// place fails as a unit with the engine's reason.
func TestFeasibilityRouting(t *testing.T) {
	zeroBatch := func(pipeline.Request) pipeline.Report { return pipeline.Report{Batch: 0, StepSec: 1} }
	longOnly := func(req pipeline.Request) pipeline.Report {
		if req.Context < workload.Long.Input {
			return pipeline.Report{OOM: true, Reason: "too small to bother"}
		}
		return pipeline.Report{Batch: req.Batch, PrefillSec: 1}
	}
	shortOnly := func(req pipeline.Request) pipeline.Report {
		if req.Context > workload.Short.Input {
			return pipeline.Report{OOM: true, Reason: "storage OOM"}
		}
		return pipeline.Report{Batch: req.Batch, PrefillSec: 1}
	}
	// The zero-batch pipeline comes first, so least-loaded would pick it on
	// every tie if it counted as feasible.
	fleet := []Pipeline{{Name: "zero", Run: zeroBatch}, {Name: "long", Run: longOnly}, {Name: "short", Run: shortOnly}}
	reqs := []Request{
		{ID: 0, Class: workload.Short, ArrivalSec: 0},
		{ID: 1, Class: workload.Long, ArrivalSec: 0},
		{ID: 2, Class: workload.Medium, ArrivalSec: 0}, // nobody can run it
	}
	s, err := Run(Config{
		Model: model.OPT30B, Fleet: fleet, Policy: LeastLoaded,
		Admission: Admission{MaxBatch: 1, MaxWaitSec: 0},
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if s.FailedBatches != 1 || s.FailedJobs != 1 || len(s.FailedJobIDs) != 1 || s.FailedJobIDs[0] != 2 {
		t.Fatalf("failed-work accounting %+v", s)
	}
	if s.Completed != 2 {
		t.Errorf("completed %d, want 2", s.Completed)
	}
	for _, a := range s.Assignments {
		if a.Pipeline < 0 {
			if a.Reason == "" {
				t.Error("failed batch lost its reason")
			}
			continue
		}
		want := "short"
		if a.Batch.Class.Name == workload.Long.Name {
			want = "long"
		}
		if fleet[a.Pipeline].Name != want {
			t.Errorf("%s batch routed to %s", a.Batch.Class.Name, fleet[a.Pipeline].Name)
		}
	}
}

// The backlog cap rejects arrivals while admitted-but-unstarted work is at
// the cap, and rejected requests never reach a pipeline.
func TestBacklogCapRejection(t *testing.T) {
	s, err := Run(Config{
		Model:     model.OPT30B,
		Fleet:     []Pipeline{{Name: "slow", Run: constEngine(100)}},
		Policy:    LeastLoaded,
		Admission: Admission{MaxBatch: 1, MaxWaitSec: 0, MaxBacklog: 2},
	}, shortReqs(0, 1, 2, 3, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	// r0 starts immediately; r1 and r2 queue behind it (starts 100, 200);
	// r3..r5 arrive with two unstarted requests in the system and bounce.
	if s.RejectedJobs != 3 || !reflect.DeepEqual(s.RejectedJobIDs, []int{3, 4, 5}) {
		t.Fatalf("rejected %v", s.RejectedJobIDs)
	}
	if s.Admitted != 3 || s.Completed != 3 || s.Batches != 3 {
		t.Errorf("admission accounting %+v", s)
	}
	if s.OutputTokens != 3*int64(workload.Short.Output) {
		t.Errorf("rejected work generated tokens: %d", s.OutputTokens)
	}
}

// Cost and energy attribution: busy seconds × amortized rate, and the
// Fig. 17(a) integration over completed tokens.
func TestAttribution(t *testing.T) {
	tb := device.DefaultTestbed()
	eng := func(req pipeline.Request) pipeline.Report {
		return pipeline.Report{Batch: req.Batch, PrefillSec: 0, StepSec: 0.01}
	}
	fleet := []Pipeline{{
		Name: "p0", Run: eng, USDPerHour: 7.2,
		Energy: &EnergyConfig{Testbed: tb, Model: energy.Config{Storage: energy.PlainSSDs, Devices: 4}},
	}}
	s, err := Run(Config{
		Model: model.OPT30B, Fleet: fleet, Policy: CheapestFeasible,
		Admission: Admission{MaxBatch: 4, MaxWaitSec: 0},
	}, shortReqs(0, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	ps := s.Pipelines[0]
	if ps.Jobs != 4 || ps.BusySec <= 0 {
		t.Fatalf("pipeline stats %+v", ps)
	}
	wantCost := 7.2 / 3600 * ps.BusySec
	if math.Abs(ps.CostUSD-wantCost) > 1e-12 {
		t.Errorf("cost %v, want %v", ps.CostUSD, wantCost)
	}
	if ps.EnergyJ <= 0 {
		t.Error("energy attribution missing")
	}
	if s.TotalCostUSD != ps.CostUSD || s.TotalEnergyJ != ps.EnergyJ {
		t.Error("totals disagree with per-pipeline sums")
	}
	if ps.Utilization <= 0 || ps.Utilization > 1 {
		t.Errorf("utilization %v out of range", ps.Utilization)
	}
}

// Determinism on real engines: a mixed HILOS + DRAM-baseline fleet over a
// Poisson trace must produce byte-identical summaries run after run (the
// -race CI job exercises the prewarming pool).
func TestRunDeterministicRealEngines(t *testing.T) {
	tb := device.DefaultTestbed()
	fleet := []Pipeline{
		{Name: "hilos-0", Run: func(r pipeline.Request) pipeline.Report { return core.Run(tb, r, core.DefaultOptions(8)) }, USDPerHour: 2.0},
		{Name: "hilos-1", Run: func(r pipeline.Request) pipeline.Report { return core.Run(tb, r, core.DefaultOptions(8)) }, USDPerHour: 2.0},
		{Name: "flex-dram", Run: func(r pipeline.Request) pipeline.Report { return baseline.FlexDRAM(tb).Run(tb, r) }, USDPerHour: 0.9},
	}
	g, err := workload.NewGenerator(11, workload.AzureLikeMix())
	if err != nil {
		t.Fatal(err)
	}
	arr, err := workload.PoissonArrivals(11, 0.5, 36)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := g.TimedTrace(arr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Model: model.OPT30B, Fleet: fleet, Policy: CheapestFeasible,
		Admission: Admission{MaxBatch: 8, MaxWaitSec: 60},
	}
	base, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if base.Completed == 0 || base.MakespanSec <= 0 {
		t.Fatalf("degenerate baseline summary %+v", base)
	}
	for trial := 0; trial < 3; trial++ {
		s, err := Run(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s, base) {
			t.Fatalf("trial %d: summary differs from first run", trial)
		}
	}
}

// Validation errors.
func TestRunErrors(t *testing.T) {
	okFleet := []Pipeline{{Name: "p", Run: constEngine(1)}}
	okAdm := Admission{MaxBatch: 1}
	cases := map[string]Config{
		"empty fleet":   {Model: model.OPT30B, Policy: LeastLoaded, Admission: okAdm},
		"nil engine":    {Model: model.OPT30B, Fleet: []Pipeline{{Name: "p"}}, Policy: LeastLoaded, Admission: okAdm},
		"bad policy":    {Model: model.OPT30B, Fleet: okFleet, Policy: "vibes", Admission: okAdm},
		"bad batch":     {Model: model.OPT30B, Fleet: okFleet, Policy: LeastLoaded},
		"negative wait": {Model: model.OPT30B, Fleet: okFleet, Policy: LeastLoaded, Admission: Admission{MaxBatch: 1, MaxWaitSec: -1}},
		"negative rate": {Model: model.OPT30B, Fleet: []Pipeline{{Name: "p", Run: constEngine(1), USDPerHour: -1}}, Policy: LeastLoaded, Admission: okAdm},
	}
	for name, cfg := range cases {
		if _, err := Run(cfg, shortReqs(0)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := Config{Model: model.OPT30B, Fleet: okFleet, Policy: LeastLoaded, Admission: okAdm}
	if _, err := Run(ok, nil); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := Run(ok, []Request{{ID: 0, Class: workload.Short, ArrivalSec: -2}}); err == nil {
		t.Error("negative arrival accepted")
	}
	dup := []Request{
		{ID: 7, Class: workload.Short, ArrivalSec: 0},
		{ID: 3, Class: workload.Short, ArrivalSec: 1},
		{ID: 7, Class: workload.Medium, ArrivalSec: 2},
	}
	if _, err := Run(ok, dup); err == nil || !strings.Contains(err.Error(), "request ID 7") {
		t.Errorf("duplicate request ID: err %v, want one naming ID 7", err)
	}
}

// The exact-tail-pass accounting: 5 jobs on an engine that fits 2 run two
// full passes plus one batch-1 tail pass at the tail's own (cheaper) cost.
// The backlog-level pass tests (batch-independent integer passes, busy and
// per-class seconds) live in backlog_test.go.
func TestDispatchExactTailPass(t *testing.T) {
	shrink := func(req pipeline.Request) pipeline.Report {
		// Step time scales with the running batch.
		b := min(req.Batch, 2)
		return pipeline.Report{Batch: b, PrefillSec: 10, StepSec: float64(b)}
	}
	s, err := Run(Config{
		Model: model.OPT30B, Fleet: []Pipeline{{Name: "p", Run: shrink}}, Policy: LeastLoaded,
		Admission: Admission{MaxBatch: 5},
	}, shortReqs(0, 0, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if s.Batches != 1 {
		t.Fatalf("%d batches, want 1", s.Batches)
	}
	// Full pass at batch 2: 10 + 99×2 = 208 s, twice; tail pass at batch 1:
	// 10 + 99×1 = 109 s. Ceil accounting would charge 3×208.
	if want := 2*208.0 + 109; s.Assignments[0].ExecSec() != want {
		t.Errorf("exec %v, want %v (two full passes + exact tail pass)", s.Assignments[0].ExecSec(), want)
	}
}

// BenchmarkClusterRun replays one trace through each dispatch branch of
// the event loop: batches closed at admission, continuous batching, and
// close-at-admission with deadline-aware preemption. Short requests form the
// urgent class so the preempt case evicts.
func BenchmarkClusterRun(b *testing.B) {
	tb := device.DefaultTestbed()
	fleet := []Pipeline{
		{Name: "hilos", Run: func(r pipeline.Request) pipeline.Report { return core.Run(tb, r, core.DefaultOptions(8)) }},
		{Name: "flex-dram", Run: func(r pipeline.Request) pipeline.Report { return baseline.FlexDRAM(tb).Run(tb, r) }},
	}
	g, _ := workload.NewGenerator(1, workload.AzureLikeMix())
	arr, _ := workload.PoissonArrivals(1, 1, 48)
	reqs, _ := g.TimedTrace(arr)
	for i := range reqs {
		if reqs[i].Class.Name == workload.Short.Name {
			reqs[i].Priority, reqs[i].DeadlineSec = 1, 60
		}
	}
	for _, bc := range []struct {
		name string
		adm  Admission
	}{
		{"close", Admission{MaxBatch: 8, MaxWaitSec: 30}},
		{"continuous", Admission{MaxBatch: 8, MaxWaitSec: 30, ContinuousBatching: true}},
		{"preempt", Admission{MaxBatch: 8, MaxWaitSec: 30, Preemption: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := Config{Model: model.OPT30B, Fleet: fleet, Policy: CheapestFeasible, Admission: bc.adm}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg, reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Requests sharing a class name but not a shape must not merge into one
// batch: each shape gets its own queue and is simulated at its own shape
// (a replayed foreign trace may reuse labels).
func TestRunShapeConflictingClasses(t *testing.T) {
	a := workload.Class{Name: "req", Input: 100, Output: 10}
	b := workload.Class{Name: "req", Input: 4000, Output: 500}
	reqs := []Request{
		{ID: 0, Class: a, ArrivalSec: 0},
		{ID: 1, Class: b, ArrivalSec: 0},
	}
	// The spy runs on the prewarm workers, so its log needs a lock.
	var mu sync.Mutex
	var shapes []int
	spy := func(req pipeline.Request) pipeline.Report {
		mu.Lock()
		shapes = append(shapes, req.Context)
		mu.Unlock()
		return pipeline.Report{Batch: req.Batch, PrefillSec: 1}
	}
	s, err := Run(Config{
		Model: model.OPT30B, Fleet: []Pipeline{{Name: "p", Run: spy}}, Policy: LeastLoaded,
		Admission: Admission{MaxBatch: 4, MaxWaitSec: 0},
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Batches != 2 {
		t.Fatalf("shapes merged into %d batch(es): %+v", s.Batches, s.Assignments)
	}
	if s.OutputTokens != 10+500 {
		t.Errorf("tokens %d, want 510 (each request at its own shape)", s.OutputTokens)
	}
	seen := map[int]bool{}
	for _, c := range shapes {
		seen[c] = true
	}
	if !seen[100] || !seen[4000] {
		t.Errorf("engine saw contexts %v, want both 100 and 4000", shapes)
	}
}

// The makespan measures from the first arrival, so a trace with an absolute
// time offset (e.g. seconds-of-day) reports the same makespan, throughput
// and utilization as the same trace starting at zero.
func TestRunMakespanIgnoresTraceOffset(t *testing.T) {
	cfg := Config{
		Model:     model.OPT30B,
		Fleet:     []Pipeline{{Name: "p", Run: constEngine(3)}},
		Policy:    LeastLoaded,
		Admission: Admission{MaxBatch: 2, MaxWaitSec: 5},
	}
	base, err := Run(cfg, shortReqs(0, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	const offset = 43200.0
	shifted := shortReqs(0+offset, 1+offset, 2+offset, 3+offset)
	moved, err := Run(cfg, shifted)
	if err != nil {
		t.Fatal(err)
	}
	if moved.MakespanSec != base.MakespanSec {
		t.Errorf("offset trace makespan %v, want %v", moved.MakespanSec, base.MakespanSec)
	}
	if moved.Throughput() != base.Throughput() {
		t.Errorf("offset trace throughput %v, want %v", moved.Throughput(), base.Throughput())
	}
	if moved.Pipelines[0].Utilization != base.Pipelines[0].Utilization {
		t.Errorf("offset trace utilization %v, want %v",
			moved.Pipelines[0].Utilization, base.Pipelines[0].Utilization)
	}
	// Assignments stay on the absolute clock.
	if moved.Assignments[0].StartSec < offset {
		t.Errorf("assignment start %v lost the trace offset", moved.Assignments[0].StartSec)
	}
}

// A failing energy integration must be surfaced, not silently reported as
// zero joules.
func TestEnergyErrorSurfaced(t *testing.T) {
	fleet := []Pipeline{{
		Name: "p", Run: constEngine(1),
		Energy: &EnergyConfig{Testbed: device.DefaultTestbed(), Model: energy.Config{Storage: 99}},
	}}
	s, err := Run(Config{
		Model: model.OPT30B, Fleet: fleet, Policy: LeastLoaded,
		Admission: Admission{MaxBatch: 1, MaxWaitSec: 0},
	}, shortReqs(0))
	if err != nil {
		t.Fatal(err)
	}
	if s.Pipelines[0].EnergyErr == "" {
		t.Error("energy integration failure not surfaced in PipelineStats.EnergyErr")
	}
	if s.Pipelines[0].EnergyJ != 0 {
		t.Errorf("failed integration still accumulated %v J", s.Pipelines[0].EnergyJ)
	}
}

// Pipelines declaring a shared EngineID memoize simulations across the
// fleet: two identical hosts simulate each batch shape once, not twice.
func TestSharedEngineIDMemoizesAcrossPipelines(t *testing.T) {
	var calls atomic.Int64
	counting := func(req pipeline.Request) pipeline.Report {
		calls.Add(1)
		return pipeline.Report{Batch: req.Batch, PrefillSec: 1}
	}
	fleet := []Pipeline{
		{Name: "a", Run: counting, EngineID: "shared"},
		{Name: "b", Run: counting, EngineID: "shared"},
	}
	reqs := shortReqs(0, 0, 0, 0, 0, 0)
	reqs[4].Class, reqs[5].Class = workload.Long, workload.Long
	run := func(fleet []Pipeline) {
		t.Helper()
		if _, err := Run(Config{
			Model: model.OPT30B, Fleet: fleet, Policy: LeastLoaded,
			Admission: Admission{MaxBatch: 2},
		}, reqs); err != nil {
			t.Fatal(err)
		}
	}
	run(fleet)
	// Two distinct shapes (Short×2, Long×2), one simulation each.
	if got := calls.Load(); got != 2 {
		t.Errorf("%d engine simulations, want 2 (shared EngineID must memoize across pipelines)", got)
	}

	// Without EngineID, each pipeline keeps a private memo.
	calls.Store(0)
	private := []Pipeline{{Name: "a", Run: counting}, {Name: "b", Run: counting}}
	run(private)
	if got := calls.Load(); got != 4 {
		t.Errorf("%d engine simulations, want 4 (private memos per pipeline)", got)
	}
}

// Reports memoize per (engine, request shape, batch size) and nothing else:
// two class names over one shape share a simulation, and every tail size,
// whether continuous dispatch or the preemption path reaches it, simulates
// once per engine. The per-engine totals were recorded on the map-keyed
// memo the report tables replaced, so the tables never simulate more.
func TestReportTableSimulatesOncePerEngine(t *testing.T) {
	type call struct {
		engine         string
		in, out, batch int
	}
	var mu sync.Mutex // the engines also run on the prewarm workers
	calls := map[call]int{}
	engine := func(name string) RunFunc {
		return func(req pipeline.Request) pipeline.Report {
			mu.Lock()
			calls[call{name, req.Context, req.OutputLen, req.Batch}]++
			mu.Unlock()
			// Fits at most 3, so batches of 4 and 5 leave tails of 1 and 2.
			return pipeline.Report{Batch: min(req.Batch, 3), PrefillSec: 2, StepSec: 0.001 * float64(req.Context)}
		}
	}
	fleet := []Pipeline{
		{Name: "a0", Run: engine("a"), EngineID: "a"},
		{Name: "a1", Run: engine("a"), EngineID: "a"},
		{Name: "b", Run: engine("b"), USDPerHour: 1},
	}
	twin := workload.Short
	twin.Name = "twin" // Short's shape under another name
	classes := []workload.Class{workload.Short, twin, workload.Long, twin}
	var reqs []Request
	for i := range 48 {
		r := Request{ID: i, Class: classes[i%len(classes)], ArrivalSec: float64(i) * 0.25}
		if i%5 == 0 {
			r.Priority, r.DeadlineSec = 1, 0.5
		}
		reqs = append(reqs, r)
	}
	for _, tc := range []struct {
		name      string
		adm       Admission
		perEngine int // distinct simulations per engine, recorded on the map memo
	}{
		// Both shapes at every size 1..5: full batches plus tails.
		{"continuous", Admission{MaxBatch: 5, MaxWaitSec: 1, ContinuousBatching: true}, 10},
		// Short at sizes 1, 2, 3, 5 and Long at 1, 2, 5.
		{"preempt", Admission{MaxBatch: 5, MaxWaitSec: 1, Preemption: true}, 7},
	} {
		for _, pol := range Policies() {
			clear(calls)
			s, err := Run(Config{Model: model.OPT30B, Fleet: fleet, Policy: pol, Admission: tc.adm}, reqs)
			if err != nil {
				t.Fatal(err)
			}
			if tc.adm.Preemption && s.PreemptedBatches == 0 {
				t.Fatalf("%s/%s: nothing preempted, so the preemption path never ran", tc.name, pol)
			}
			per := map[string]int{}
			for c, n := range calls {
				if n != 1 {
					t.Errorf("%s/%s: %+v simulated %d times, want once", tc.name, pol, c, n)
				}
				per[c.engine]++
			}
			if per["a"] != tc.perEngine || per["b"] != tc.perEngine {
				t.Errorf("%s/%s: simulations per engine %v, want %d each", tc.name, pol, per, tc.perEngine)
			}
		}
	}
}

// Non-finite admission waits and arrival times must be rejected up front:
// an infinite or NaN deadline can never fire, which would silently drop
// requests while still counting them as completed.
func TestRunRejectsNonFiniteInputs(t *testing.T) {
	ok := Config{
		Model: model.OPT30B, Fleet: []Pipeline{{Name: "p", Run: constEngine(1)}},
		Policy: LeastLoaded, Admission: Admission{MaxBatch: 8},
	}
	bad := ok
	bad.Admission.MaxWaitSec = math.Inf(1)
	if _, err := Run(bad, shortReqs(0, 1, 2)); err == nil {
		t.Error("infinite max wait accepted")
	}
	bad.Admission.MaxWaitSec = math.NaN()
	if _, err := Run(bad, shortReqs(0, 1, 2)); err == nil {
		t.Error("NaN max wait accepted")
	}
	if _, err := Run(ok, shortReqs(0, math.NaN())); err == nil {
		t.Error("NaN arrival accepted")
	}
	if _, err := Run(ok, shortReqs(0, math.Inf(1))); err == nil {
		t.Error("infinite arrival accepted")
	}
}
