package cluster

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// telemetryFleet is a two-tier synthetic fleet with flash write accounting
// on the slow tier.
func telemetryFleet() []Pipeline {
	flashy := func(totalSec float64) RunFunc {
		return func(req pipeline.Request) pipeline.Report {
			rep := constEngine(totalSec)(req)
			rep.PrefillWriteBytes = 1e9
			rep.DecodeWriteBytesPerStep = 1e6
			rep.Devices = 4
			return rep
		}
	}
	return []Pipeline{
		{Name: "fast", Run: constEngine(2)},
		{Name: "slow", Run: flashy(5)},
	}
}

// parityTrace builds a deterministic pseudo-random mixed trace: two
// classes, two priorities, deadlines on the urgent tier.
func parityTrace(seed int64, n int) []Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, n)
	at := 0.0
	for i := range reqs {
		at += rng.Float64() * 3
		r := Request{ID: i, Class: workload.Short, ArrivalSec: at}
		if rng.Intn(2) == 0 {
			r.Class = workload.Medium
		} else {
			r.Priority = 1
			r.DeadlineSec = 1 + rng.Float64()*20
		}
		reqs[i] = r
	}
	return reqs
}

// FuzzClusterTelemetryParity asserts the determinism contract of the
// telemetry layer: attaching a registry, an event stream, and a lossy
// subscriber must leave the Summary bit-identical to a run with telemetry
// disabled, across admission configurations including preemption and
// continuous batching.
func FuzzClusterTelemetryParity(f *testing.F) {
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
			Fleet:  telemetryFleet(),
			Policy: LeastLoaded,
			Admission: Admission{
				MaxBatch:           maxBatch,
				MaxWaitSec:         waitSec,
				MaxBacklog:         backlog,
				Preemption:         flags&1 != 0,
				ContinuousBatching: flags&2 != 0,
			},
		}
		reqs := parityTrace(seed, n)

		plain, err := Run(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}

		reg := telemetry.NewRegistry()
		stream := telemetry.NewStream()
		sub := stream.Subscribe(1) // tiny buffer: exercise the drop path
		defer stream.Close()
		cfg.Telemetry = NewTelemetry(reg, stream)
		instrumented, err := Run(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		_ = sub

		if !reflect.DeepEqual(plain, instrumented) {
			t.Fatalf("telemetry changed the Summary:\noff: %+v\non:  %+v", plain, instrumented)
		}
	})
}

// Live counters must agree with the Summary where the schedule cannot shift
// them, and finalize must copy the settled end-state exactly — under faults
// too, where fault-aborted attempts must not reach the delay histogram.
func TestTelemetryCountersMatchSummary(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		checkTelemetryMatchesSummary(t, Config{
			Model:     model.OPT30B,
			Fleet:     telemetryFleet(),
			Policy:    LeastLoaded,
			Admission: Admission{MaxBatch: 4, MaxWaitSec: 5, MaxBacklog: 6},
		}, parityTrace(3, 40))
	})
	for _, mode := range []string{"close", "continuous", "preempt"} {
		t.Run("faulted-"+mode, func(t *testing.T) {
			cfg, reqs := digestCase{mode: mode, faults: true, policy: LeastLoaded}.config(t)
			checkTelemetryMatchesSummary(t, cfg, reqs)
		})
	}
}

func checkTelemetryMatchesSummary(t *testing.T, cfg Config, reqs []Request) {
	reg := telemetry.NewRegistry()
	stream := telemetry.NewStream()
	sub := stream.Subscribe(1024)
	cfg.Telemetry = NewTelemetry(reg, stream)
	s, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	dropped := stream.Stats().Dropped // one subscriber: its drops
	stream.Close()

	snap := reg.Snapshot()
	if got := snap.Counters["cluster.arrivals"]; got != int64(s.Admitted) {
		t.Errorf("arrivals counter %d, Summary.Admitted %d", got, s.Admitted)
	}
	if got := snap.Counters["cluster.rejections"]; got != int64(s.RejectedJobs) {
		t.Errorf("rejections counter %d, Summary.RejectedJobs %d", got, s.RejectedJobs)
	}
	if got := snap.Counters["cluster.completed_jobs"]; got != int64(s.Completed) {
		t.Errorf("completed counter %d, Summary.Completed %d", got, s.Completed)
	}
	if got := snap.Counters["cluster.deadline_misses"]; got != int64(s.DeadlineMisses) {
		t.Errorf("deadline miss counter %d, Summary %d", got, s.DeadlineMisses)
	}
	if got := snap.Gauges["cluster.makespan_sec"]; got != s.MakespanSec {
		t.Errorf("makespan gauge %g, Summary %g", got, s.MakespanSec)
	}
	if h, ok := snap.Histograms["cluster.delay_sec"]; !ok || h.Count != int64(s.Completed) {
		t.Errorf("delay histogram count %d, want %d completions", h.Count, s.Completed)
	}
	for _, ps := range s.Pipelines {
		if got := snap.Gauges["cluster.pipeline."+ps.Name+".busy_sec"]; got != ps.BusySec {
			t.Errorf("pipeline %s busy gauge %g, Summary %g", ps.Name, got, ps.BusySec)
		}
	}

	// The stream narrated the run: arrival events for every admitted
	// request, dispatch events for every committed batch.
	var arrivals, dispatches int
	for e := range sub.Events() {
		switch e.Kind {
		case "arrival":
			arrivals++
		case "dispatch":
			dispatches++
		}
	}
	if arrivals+int(dropped) < s.Admitted {
		t.Errorf("stream saw %d arrivals (+%d dropped), Summary admitted %d", arrivals, dropped, s.Admitted)
	}
	if dispatches == 0 && s.Batches > s.FailedBatches {
		t.Error("no dispatch events for a run with completed batches")
	}
}

// Wear and writeback pressure surface in the Summary (satellite: endurance
// next to latency and cost in the same run output).
func TestSummaryWearAccounting(t *testing.T) {
	cfg := Config{
		Model:     model.OPT30B,
		Fleet:     telemetryFleet(),
		Policy:    LeastLoaded,
		Admission: Admission{MaxBatch: 2, MaxWaitSec: 1},
	}
	s, err := Run(cfg, shortReqs(0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	var fast, slow *PipelineStats
	for i := range s.Pipelines {
		switch s.Pipelines[i].Name {
		case "fast":
			fast = &s.Pipelines[i]
		case "slow":
			slow = &s.Pipelines[i]
		}
	}
	if fast.WriteBytes != 0 || fast.WearPct != 0 {
		t.Errorf("DRAM tier reports wear: %+v", fast)
	}
	if slow.Jobs > 0 {
		// Short class: 100 output tokens → 99 decode steps per pass.
		perBatch := 1e9 + 1e6*99
		if want := float64(slow.Batches) * perBatch; slow.WriteBytes != want {
			t.Errorf("slow WriteBytes = %g, want %g", slow.WriteBytes, want)
		}
		if slow.WearPct <= 0 {
			t.Errorf("slow WearPct = %g, want > 0", slow.WearPct)
		}
		if want := slow.WriteBytes / slow.BusySec; slow.WritePressureBps != want {
			t.Errorf("slow WritePressureBps = %g, want %g", slow.WritePressureBps, want)
		}
	}
	if s.TotalWriteBytes != fast.WriteBytes+slow.WriteBytes {
		t.Errorf("TotalWriteBytes = %g", s.TotalWriteBytes)
	}
}

// Rejected and failed job IDs must come out sorted regardless of the order
// the scheduler produced them.
func TestSummaryIDsSorted(t *testing.T) {
	cfg := Config{
		Model:     model.OPT30B,
		Fleet:     []Pipeline{{Name: "p0", Run: constEngine(50)}},
		Policy:    LeastLoaded,
		Admission: Admission{MaxBatch: 1, MaxWaitSec: 0, MaxBacklog: 2},
	}
	// IDs arrive out of numeric order at distinct times; the backlog cap
	// rejects the later ones.
	reqs := []Request{
		{ID: 9, Class: workload.Short, ArrivalSec: 0},
		{ID: 5, Class: workload.Short, ArrivalSec: 1},
		{ID: 7, Class: workload.Short, ArrivalSec: 2},
		{ID: 2, Class: workload.Short, ArrivalSec: 3},
	}
	s, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(s.RejectedJobIDs); i++ {
		if s.RejectedJobIDs[i-1] > s.RejectedJobIDs[i] {
			t.Fatalf("RejectedJobIDs not sorted: %v", s.RejectedJobIDs)
		}
	}
	for i := 1; i < len(s.FailedJobIDs); i++ {
		if s.FailedJobIDs[i-1] > s.FailedJobIDs[i] {
			t.Fatalf("FailedJobIDs not sorted: %v", s.FailedJobIDs)
		}
	}
}
