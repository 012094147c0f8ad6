package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// Continuous batching re-forms batches at dispatch time: requests that
// queue while the only pipeline is busy are re-packed into one batch up to
// MaxBatch when it frees, instead of dispatching the singleton batches that
// closed at admission.
func TestContinuousBatchingRePacksOnFree(t *testing.T) {
	adm := Admission{MaxBatch: 4, MaxWaitSec: 0}
	reqs := shortReqs(0, 1, 2, 3, 4)
	legacy, err := Run(Config{
		Model: model.OPT30B, Fleet: []Pipeline{{Name: "p", Run: constEngine(10)}},
		Policy: LeastLoaded, Admission: adm,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Close-at-admission with MaxWait 0: five singleton batches, each
	// queueing behind the previous 10-second run.
	if legacy.Batches != 5 {
		t.Fatalf("legacy batches %d, want 5", legacy.Batches)
	}

	adm.ContinuousBatching = true
	cont, err := Run(Config{
		Model: model.OPT30B, Fleet: []Pipeline{{Name: "p", Run: constEngine(10)}},
		Policy: LeastLoaded, Admission: adm,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Continuous: request 0 starts immediately; 1..4 accumulate and the
	// freed pipeline re-packs all four into one batch at t=10.
	if cont.Batches != 2 {
		t.Fatalf("continuous batches %d, want 2: %+v", cont.Batches, cont.Assignments)
	}
	second := cont.Assignments[1]
	if len(second.Batch.JobIDs) != 4 || second.StartSec != 10 {
		t.Errorf("re-packed batch %+v, want 4 jobs starting at 10", second)
	}
	if cont.Completed != 5 || cont.OutputTokens != legacy.OutputTokens {
		t.Errorf("continuous completed %d jobs, %d tokens; want 5 and %d",
			cont.Completed, cont.OutputTokens, legacy.OutputTokens)
	}
	// Re-packing strictly reduces makespan here: one tail batch instead of
	// four serial singletons.
	if cont.MakespanSec >= legacy.MakespanSec {
		t.Errorf("continuous makespan %v not below legacy %v", cont.MakespanSec, legacy.MakespanSec)
	}
}

// A re-packed batch respects MaxBatch: a backlog larger than MaxBatch
// drains in MaxBatch-sized waves, oldest first.
func TestContinuousBatchingRespectsMaxBatch(t *testing.T) {
	s, err := Run(Config{
		Model: model.OPT30B, Fleet: []Pipeline{{Name: "p", Run: constEngine(10)}},
		Policy:    LeastLoaded,
		Admission: Admission{MaxBatch: 2, MaxWaitSec: 0, ContinuousBatching: true},
	}, shortReqs(0, 1, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if s.Batches != 3 {
		t.Fatalf("batches %d, want 3 (1, then 2+2 waves): %+v", s.Batches, s.Assignments)
	}
	if got := s.Assignments[1].Batch.JobIDs; !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("first wave %v, want oldest two {1,2}", got)
	}
	if s.Assignments[1].StartSec != 10 || s.Assignments[2].StartSec != 20 {
		t.Errorf("wave starts %v/%v, want 10/20", s.Assignments[1].StartSec, s.Assignments[2].StartSec)
	}
}

// Priority classes in continuous mode: when a pipeline frees, the ripest
// high-priority queue dispatches before older low-priority work.
func TestContinuousBatchingPriorityOrder(t *testing.T) {
	reqs := []Request{
		{ID: 0, Class: workload.Short, ArrivalSec: 0},              // takes the pipeline
		{ID: 1, Class: workload.Medium, ArrivalSec: 1},             // offline, queues first
		{ID: 2, Class: workload.Short, ArrivalSec: 2, Priority: 1}, // online, queues later
		{ID: 3, Class: workload.Medium, ArrivalSec: 3},             // offline
	}
	s, err := Run(Config{
		Model: model.OPT30B, Fleet: []Pipeline{{Name: "p", Run: constEngine(10)}},
		Policy:    LeastLoaded,
		Admission: Admission{MaxBatch: 4, MaxWaitSec: 0, ContinuousBatching: true},
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Batches != 3 {
		t.Fatalf("batches %d: %+v", s.Batches, s.Assignments)
	}
	// At t=10 the online queue wins despite arriving after the offline one.
	if got := s.Assignments[1].Batch; got.Priority != 1 || got.JobIDs[0] != 2 {
		t.Errorf("freed pipeline served %+v first, want online request 2", got)
	}
	if got := s.Assignments[2].Batch; got.Priority != 0 || len(got.JobIDs) != 2 {
		t.Errorf("offline wave %+v, want requests {1,3}", got)
	}
	online, ok := s.PriorityByClass(1)
	if !ok || online.Completed != 1 {
		t.Fatalf("per-priority stats missing online class: %+v", s.PerPriority)
	}
	offline, _ := s.PriorityByClass(0)
	if online.DelayP99Sec >= offline.DelayP99Sec {
		t.Errorf("online p99 %v not below offline %v", online.DelayP99Sec, offline.DelayP99Sec)
	}
}

// Preemption invariants: an online batch that would miss its deadline
// evicts the unstarted offline batch (re-enqueued, re-run exactly once,
// never dropped), while the running batch always completes.
func TestPreemptionEvictsUnstartedBatchOnly(t *testing.T) {
	reqs := []Request{
		{ID: 0, Class: workload.Short, ArrivalSec: 0},                              // starts 0–10: immovable
		{ID: 1, Class: workload.Short, ArrivalSec: 0},                              // pending 10–20: evictable
		{ID: 2, Class: workload.Short, ArrivalSec: 2, Priority: 1, DeadlineSec: 5}, // online, deadline t=7
	}
	s, err := Run(Config{
		Model: model.OPT30B, Fleet: []Pipeline{{Name: "p", Run: constEngine(10)}},
		Policy:    LeastLoaded,
		Admission: Admission{MaxBatch: 1, MaxWaitSec: 0, Preemption: true},
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if s.PreemptedBatches != 1 || s.PreemptedJobs != 1 {
		t.Fatalf("preemption counts %d/%d, want 1/1", s.PreemptedBatches, s.PreemptedJobs)
	}
	// No work lost: all three jobs complete, each exactly once.
	if s.Completed != 3 || s.FailedJobs != 0 || s.RejectedJobs != 0 {
		t.Fatalf("accounting %+v", s)
	}
	runs := map[int]int{}
	for _, a := range s.Assignments {
		for _, id := range a.Batch.JobIDs {
			runs[id]++
		}
	}
	for id, n := range runs {
		if n != 1 {
			t.Errorf("job %d ran %d times, want exactly once", id, n)
		}
	}
	// The online batch takes the batch boundary at t=10 (the running batch
	// is never interrupted); the evicted offline job re-runs after it.
	var online, evictee Assignment
	for _, a := range s.Assignments {
		switch a.Batch.JobIDs[0] {
		case 2:
			online = a
		case 1:
			evictee = a
		}
	}
	if online.StartSec != 10 {
		t.Errorf("online start %v, want 10 (the first batch boundary)", online.StartSec)
	}
	if evictee.StartSec != 20 {
		t.Errorf("evicted job restarted at %v, want 20 (after the online batch)", evictee.StartSec)
	}
	// t=10 is still past the t=7 deadline: the miss must be reported.
	if s.DeadlineMisses != 1 {
		t.Errorf("deadline misses %d, want 1", s.DeadlineMisses)
	}
	offline, _ := s.PriorityByClass(0)
	if offline.PreemptedJobs != 1 {
		t.Errorf("offline preempted-jobs %d, want 1", offline.PreemptedJobs)
	}
}

// A deadline expiry forces a waiting partial batch out ahead of its
// max-wait timer when preemption is on; off, the deadline is advisory and
// only the miss is reported.
func TestDeadlineForcesPartialBatch(t *testing.T) {
	reqs := []Request{{ID: 0, Class: workload.Short, ArrivalSec: 0, Priority: 1, DeadlineSec: 5}}
	cfg := Config{
		Model: model.OPT30B, Fleet: []Pipeline{{Name: "p", Run: constEngine(1)}},
		Policy:    LeastLoaded,
		Admission: Admission{MaxBatch: 8, MaxWaitSec: 100},
	}
	base, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if base.Assignments[0].StartSec != 100 || base.DeadlineMisses != 1 {
		t.Errorf("advisory run start %v misses %d, want 100 and 1",
			base.Assignments[0].StartSec, base.DeadlineMisses)
	}
	cfg.Admission.Preemption = true
	pre, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Assignments[0].StartSec != 5 || pre.DeadlineMisses != 0 {
		t.Errorf("preemptive run start %v misses %d, want 5 and 0",
			pre.Assignments[0].StartSec, pre.DeadlineMisses)
	}
}

// With preemption, the backlog cap stops rejecting higher-priority
// arrivals: they compete only with their own class and above, and the
// queued offline work absorbs the wait instead.
func TestPreemptionBacklogBypass(t *testing.T) {
	reqs := []Request{
		{ID: 0, Class: workload.Short, ArrivalSec: 0},
		{ID: 1, Class: workload.Short, ArrivalSec: 1},
		{ID: 2, Class: workload.Short, ArrivalSec: 2},
		{ID: 3, Class: workload.Short, ArrivalSec: 3},                               // offline at the cap: rejected
		{ID: 4, Class: workload.Short, ArrivalSec: 4, Priority: 1, DeadlineSec: 60}, // online: admitted
	}
	cfg := Config{
		Model: model.OPT30B, Fleet: []Pipeline{{Name: "slow", Run: constEngine(100)}},
		Policy:    LeastLoaded,
		Admission: Admission{MaxBatch: 1, MaxWaitSec: 0, MaxBacklog: 2},
	}
	base, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.RejectedJobIDs, []int{3, 4}) {
		t.Fatalf("FIFO rejects %v, want both late arrivals {3,4}", base.RejectedJobIDs)
	}
	cfg.Admission.Preemption = true
	pre, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pre.RejectedJobIDs, []int{3}) {
		t.Fatalf("preemptive run rejects %v, want only the offline arrival {3}", pre.RejectedJobIDs)
	}
	online, ok := pre.PriorityByClass(1)
	if !ok || online.Admitted != 1 || online.Completed != 1 {
		t.Errorf("online class not admitted/completed: %+v", pre.PerPriority)
	}
}

// The scheduling extensions must not disturb a priority-less trace: with
// preemption on but nothing carrying a deadline or priority, the schedule
// is identical to the baseline event loop's.
func TestPreemptionNoopWithoutDeadlines(t *testing.T) {
	cfg := Config{
		Model: model.OPT30B, Fleet: []Pipeline{{Name: "p", Run: constEngine(3)}},
		Policy:    LeastLoaded,
		Admission: Admission{MaxBatch: 2, MaxWaitSec: 5},
	}
	reqs := shortReqs(0, 1, 2, 3, 7)
	base, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Admission.Preemption = true
	pre, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Assignments, pre.Assignments) {
		t.Error("preemption changed a deadline-free schedule")
	}
}

// Determinism on real engines with every extension on: a mixed
// online/offline trace over a heterogeneous fleet with preemption and
// continuous batching must produce byte-identical summaries run after run
// (the -race CI job exercises the parallel prewarm under this loop too).
func TestRunDeterministicPreemptionContinuous(t *testing.T) {
	tb := device.DefaultTestbed()
	fleet := []Pipeline{
		{Name: "hilos-0", Run: func(r pipeline.Request) pipeline.Report { return core.Run(tb, r, hilosOptions(8)) }, USDPerHour: 2.0, EngineID: "hilos8"},
		{Name: "hilos-1", Run: func(r pipeline.Request) pipeline.Report { return core.Run(tb, r, hilosOptions(8)) }, USDPerHour: 2.0, EngineID: "hilos8"},
		{Name: "flex-dram", Run: func(r pipeline.Request) pipeline.Report { return baseline.FlexDRAM(tb).Run(tb, r) }, USDPerHour: 0.9},
	}
	g, err := workload.NewGenerator(13, workload.AzureLikeMix())
	if err != nil {
		t.Fatal(err)
	}
	arr, err := workload.BurstyArrivals(13, 0.6, 40)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := g.TimedTrace(arr)
	if err != nil {
		t.Fatal(err)
	}
	// Stamp the short requests as the online class.
	for i := range reqs {
		if reqs[i].Class.Name == workload.Short.Name {
			reqs[i].Priority = 1
			reqs[i].DeadlineSec = 45
		}
	}
	for _, adm := range []Admission{
		{MaxBatch: 8, MaxWaitSec: 60, Preemption: true},
		{MaxBatch: 8, MaxWaitSec: 60, ContinuousBatching: true},
		{MaxBatch: 8, MaxWaitSec: 60, Preemption: true, ContinuousBatching: true},
	} {
		cfg := Config{Model: model.OPT30B, Fleet: fleet, Policy: CheapestFeasible, Admission: adm}
		base, err := Run(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if base.Completed == 0 || base.MakespanSec <= 0 {
			t.Fatalf("degenerate summary %+v", base)
		}
		if got := base.Completed + base.FailedJobs + base.RejectedJobs; got != len(reqs) {
			t.Fatalf("accounting leak: %d of %d requests accounted", got, len(reqs))
		}
		for trial := 0; trial < 3; trial++ {
			s, err := Run(cfg, reqs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(s, base) {
				t.Fatalf("admission %+v trial %d: summary differs from first run", adm, trial)
			}
		}
	}
}

// Per-priority stats must partition the totals exactly.
func TestPerPriorityPartition(t *testing.T) {
	reqs := []Request{
		{ID: 0, Class: workload.Short, ArrivalSec: 0},
		{ID: 1, Class: workload.Medium, ArrivalSec: 1, Priority: 1, DeadlineSec: 100},
		{ID: 2, Class: workload.Short, ArrivalSec: 2, Priority: 2, DeadlineSec: 50},
		{ID: 3, Class: workload.Long, ArrivalSec: 3},
	}
	s, err := Run(Config{
		Model: model.OPT30B, Fleet: []Pipeline{{Name: "p", Run: constEngine(2)}},
		Policy:    LeastLoaded,
		Admission: Admission{MaxBatch: 2, MaxWaitSec: 5, Preemption: true},
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.PerPriority) != 3 {
		t.Fatalf("priority classes %d, want 3: %+v", len(s.PerPriority), s.PerPriority)
	}
	for i := 1; i < len(s.PerPriority); i++ {
		if s.PerPriority[i-1].Priority <= s.PerPriority[i].Priority {
			t.Errorf("PerPriority not sorted most-urgent-first: %+v", s.PerPriority)
		}
	}
	var requests, admitted, completed int
	for _, ps := range s.PerPriority {
		requests += ps.Requests
		admitted += ps.Admitted
		completed += ps.Completed
		if ps.DelayP50Sec > ps.DelayP99Sec {
			t.Errorf("priority %d percentiles not monotone: %+v", ps.Priority, ps)
		}
	}
	if requests != s.Requests || admitted != s.Admitted || completed != s.Completed {
		t.Errorf("per-priority partition %d/%d/%d, want %d/%d/%d",
			requests, admitted, completed, s.Requests, s.Admitted, s.Completed)
	}
}

// Invalid scheduling metadata is rejected up front.
func TestRunRejectsBadSchedulingMetadata(t *testing.T) {
	cfg := Config{
		Model: model.OPT30B, Fleet: []Pipeline{{Name: "p", Run: constEngine(1)}},
		Policy: LeastLoaded, Admission: Admission{MaxBatch: 1},
	}
	if _, err := Run(cfg, []Request{{ID: 0, Class: workload.Short, Priority: -1}}); err == nil {
		t.Error("negative priority accepted")
	}
	if _, err := Run(cfg, []Request{{ID: 0, Class: workload.Short, DeadlineSec: -1}}); err == nil {
		t.Error("negative deadline accepted")
	}
	if _, err := Run(cfg, []Request{{ID: 0, Class: workload.Short, DeadlineSec: math.Inf(1)}}); err == nil {
		t.Error("infinite deadline accepted")
	}
}

// Run reads a trace already in (ArrivalSec, ID) order in place and sorts any
// other into a copy; either way the caller's slice is left alone and the
// Summary is the same. Invalid arrivals keep the error the sorting path
// always gave: the texts below were recorded before the in-place path
// existed.
func TestRunReadsSortedTraceInPlace(t *testing.T) {
	classes := []workload.Class{workload.Short, workload.Medium, workload.Long}
	sorted := make([]Request, 60)
	for i := range sorted {
		// Arrivals tie in threes, so the ID order decides within each tie.
		sorted[i] = Request{ID: 100 + i, Class: classes[i%len(classes)], ArrivalSec: float64(i / 3)}
		if sorted[i].Class == workload.Short {
			sorted[i].Priority, sorted[i].DeadlineSec = 1, 2
		}
	}
	shuffled := slices.Clone(sorted)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)

	fleet := []Pipeline{{Name: "p0", Run: constEngine(3)}, {Name: "p1", Run: constEngine(5)}}
	for _, adm := range []Admission{
		{MaxBatch: 4, MaxWaitSec: 2},
		{MaxBatch: 4, MaxWaitSec: 2, ContinuousBatching: true},
		{MaxBatch: 4, MaxWaitSec: 2, Preemption: true},
	} {
		cfg := Config{Model: model.OPT30B, Fleet: fleet, Policy: FastestETA, Admission: adm}
		var want Summary
		for i, reqs := range [][]Request{sorted, shuffled, reversed} {
			before := slices.Clone(reqs)
			s, err := Run(cfg, reqs)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(reqs, before) {
				t.Fatalf("%+v: Run modified trace %d", adm, i)
			}
			if i == 0 {
				want = s
			} else if !reflect.DeepEqual(s, want) {
				t.Errorf("%+v: trace %d gives a different Summary from the sorted trace", adm, i)
			}
		}
	}

	cfg := Config{Model: model.OPT30B, Fleet: fleet, Policy: LeastLoaded, Admission: Admission{MaxBatch: 4}}
	arr := make([]float64, 30)
	for i := range arr {
		arr[i] = float64(i)
	}
	arr[7], arr[20] = math.NaN(), -1
	rev := slices.Clone(arr)
	slices.Reverse(rev)
	for _, tc := range []struct {
		arrivals []float64
		want     string
	}{
		{arr, "cluster: arrival time NaN for request 7 is not finite and ≥ 0"},
		{rev, "cluster: arrival time -1 for request 9 is not finite and ≥ 0"},
		{[]float64{0, 1, math.NaN(), -1}, "cluster: arrival time NaN for request 2 is not finite and ≥ 0"},
		{[]float64{-1, 0, math.NaN()}, "cluster: arrival time -1 for request 0 is not finite and ≥ 0"},
	} {
		reqs := shortReqs(tc.arrivals...)
		before := slices.Clone(reqs)
		_, err := Run(cfg, reqs)
		if err == nil || err.Error() != tc.want {
			t.Errorf("arrivals %v: err %v, want %q", tc.arrivals, err, tc.want)
		}
		if !slices.EqualFunc(reqs, before, sameRequest) {
			t.Errorf("arrivals %v: Run modified the trace", tc.arrivals)
		}
	}
}

// sameRequest is Request equality with NaN arrivals equal to themselves.
func sameRequest(a, b Request) bool {
	if math.IsNaN(a.ArrivalSec) && math.IsNaN(b.ArrivalSec) {
		a.ArrivalSec, b.ArrivalSec = 0, 0
	}
	return a == b
}

// internKeys lists a trace's distinct (priority, class) keys in
// first-arrival order with their request counts and maps each request to
// its key, both while it finds keys by scanning and once it has more than
// scanKeys of them and looks them up in a map. Keys that differ only in
// priority, class name or shape stay apart.
func TestInternKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	reqs := make([]Request, 600)
	for i := range reqs {
		c := workload.Class{Name: []string{"a", "b"}[rng.Intn(2)], Input: 512 << rng.Intn(3), Output: 64 << rng.Intn(2)}
		reqs[i] = Request{ID: i, Class: c, Priority: rng.Intn(3)}
	}
	for _, n := range []int{1, 12, 600} {
		trace := reqs[:n]
		keys, keyOf := internKeys(trace)
		var want []queueKey
		counts := map[queueKey]int{}
		for i, r := range trace {
			k := queueKey{priority: r.Priority, class: r.Class}
			if counts[k] == 0 {
				want = append(want, k)
			}
			counts[k]++
			if got := keys[keyOf[i]].key; got != k {
				t.Fatalf("%d requests: request %d interned as %+v, want %+v", n, i, got, k)
			}
		}
		if len(keys) != len(want) {
			t.Fatalf("%d requests: %d keys, want %d", n, len(keys), len(want))
		}
		for i, ks := range keys {
			if ks.key != want[i] || ks.requests != counts[ks.key] || ks.q != nil || ks.rejected != 0 {
				t.Errorf("%d requests: key %d is %+v, want %+v with %d requests", n, i, ks, want[i], counts[want[i]])
			}
		}
		if n == len(reqs) && len(keys) <= scanKeys {
			t.Fatalf("the full trace has %d keys, want more than %d", len(keys), scanKeys)
		}
	}
}

// Continuous dispatch with every pipeline busy still fails a ripe batch that
// no engine can place, at the instant its queue ripens (by filling or by max
// wait), not when a pipeline next frees. Long requests OOM on both engines;
// Short batches hold both pipelines from 0 to 10. The digest pins the whole
// Summary, so a failure that moves later or out of dispatch order shows.
func TestContinuousBusyFleetFailsInfeasibleAtRipening(t *testing.T) {
	shortOnly := func(req pipeline.Request) pipeline.Report {
		if req.Context > workload.Short.Input {
			return pipeline.Report{OOM: true, Reason: "storage OOM"}
		}
		return pipeline.Report{Batch: req.Batch, PrefillSec: 10}
	}
	reqs := []Request{
		{ID: 0, Class: workload.Short, ArrivalSec: 0},
		{ID: 1, Class: workload.Short, ArrivalSec: 0},
		{ID: 2, Class: workload.Short, ArrivalSec: 0},
		{ID: 3, Class: workload.Short, ArrivalSec: 0},
		{ID: 4, Class: workload.Long, ArrivalSec: 1},
		{ID: 5, Class: workload.Long, ArrivalSec: 1.5}, // fills the Long queue
		{ID: 6, Class: workload.Long, ArrivalSec: 2},   // ripens by max wait at 4
		{ID: 7, Class: workload.Short, ArrivalSec: 3},  // waits for a free pipeline
	}
	s, err := Run(Config{
		Model: model.OPT30B, Fleet: []Pipeline{{Name: "p0", Run: shortOnly}, {Name: "p1", Run: shortOnly}},
		Policy:    LeastLoaded,
		Admission: Admission{MaxBatch: 2, MaxWaitSec: 2, ContinuousBatching: true},
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	var failed []float64
	for _, a := range s.Assignments {
		if a.Pipeline < 0 {
			failed = append(failed, a.Batch.ReleaseSec)
		}
	}
	if !reflect.DeepEqual(failed, []float64{1.5, 4}) || s.FailedJobs != 3 {
		t.Errorf("infeasible batches failed at %v (%d jobs), want at 1.5 and 4 (3 jobs)", failed, s.FailedJobs)
	}
	if got, want := summaryDigest(t, s), "6efbef57237df0ad7054936301096db832d580e928ea3080f8b1180e250ebd05"; got != want {
		t.Errorf("summary digest %s, recorded %s", got, want)
	}
}
