package cluster

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// Offline-backlog accounting tests. A backlog is the degenerate trace that
// Simulator.Backlog issues: every request arrives at t=0, batches close at
// MaxBatch, a zero MaxWaitSec releases partial tails at t=0, and one Run
// call drains it.

// drainBacklog drains classes, all arriving at t=0, through one pipeline running
// run, in batches of up to batch requests.
func drainBacklog(t *testing.T, m model.Config, run RunFunc, batch int, classes ...workload.Class) Summary {
	t.Helper()
	reqs := make([]Request, len(classes))
	for i, c := range classes {
		reqs[i] = Request{ID: i, Class: c}
	}
	s, err := Run(Config{
		Model:     m,
		Fleet:     []Pipeline{{Name: "p", Run: run}},
		Policy:    LeastLoaded,
		Admission: Admission{MaxBatch: batch},
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func repeat(c workload.Class, n int) []workload.Class {
	out := make([]workload.Class, n)
	for i := range out {
		out[i] = c
	}
	return out
}

func TestEvaluateShrunkBatchNeedsMorePasses(t *testing.T) {
	jobs := repeat(workload.Short, 4)
	// Engine can only fit half the batch: twice the passes.
	half := func(req pipeline.Request) pipeline.Report {
		return pipeline.Report{Batch: req.Batch / 2, StepSec: 1, PrefillSec: 0}
	}
	full := func(req pipeline.Request) pipeline.Report {
		return pipeline.Report{Batch: req.Batch, StepSec: 1, PrefillSec: 0}
	}
	s := drainBacklog(t, model.OPT30B, half, 4, jobs...)
	s2 := drainBacklog(t, model.OPT30B, full, 4, jobs...)
	if s.MakespanSec != 2*s2.MakespanSec {
		t.Errorf("shrunk batch makespan %v, want 2× %v", s.MakespanSec, s2.MakespanSec)
	}
	if s.OutputTokens != s2.OutputTokens {
		t.Errorf("shrunk batch tokens %d, want %d", s.OutputTokens, s2.OutputTokens)
	}
}

// An OOM batch fails as a unit: no time, no tokens, no completions.
func TestEvaluateOOM(t *testing.T) {
	oom := func(pipeline.Request) pipeline.Report { return pipeline.Report{OOM: true} }
	s := drainBacklog(t, model.OPT30B, oom, 1, workload.Long)
	if s.FailedBatches != 1 || s.Completed != 0 || s.MakespanSec != 0 || s.OutputTokens != 0 {
		t.Errorf("OOM summary %+v", s)
	}
	cfg := Config{
		Model:     model.OPT30B,
		Fleet:     []Pipeline{{Name: "p", Run: oom}},
		Policy:    LeastLoaded,
		Admission: Admission{MaxBatch: 1},
	}
	if _, err := Run(cfg, nil); err == nil {
		t.Error("empty backlog accepted")
	}
	cfg.Fleet[0].Run = nil
	if _, err := Run(cfg, []Request{{ID: 0, Class: workload.Long}}); err == nil {
		t.Error("nil engine accepted")
	}
}

// Integer-pass accounting: a batch of 3 an engine can only fit 2 of runs
// one full pass plus a batch-1 tail pass, each paying prefill again — never
// 1.5 fractional passes. This engine's timing is batch-independent, so both
// passes cost the same; the tail is still a separate simulated pass.
func TestEvaluateIntegerPasses(t *testing.T) {
	shrink := func(pipeline.Request) pipeline.Report {
		return pipeline.Report{Batch: 2, StepSec: 1, PrefillSec: 10}
	}
	s := drainBacklog(t, model.OPT30B, shrink, 3, repeat(workload.Short, 3)...)
	// One pass: 10 + 99×1 = 109 s. Two passes: 218 s. Fractional 1.5 passes
	// would give 163.5 s and undercharge the second prefill.
	if want := 2 * 109.0; s.MakespanSec != want {
		t.Errorf("makespan %v, want %v (integer passes with per-pass prefill)", s.MakespanSec, want)
	}
}

// Exact tail-pass accounting: when step time scales with the running batch,
// the partial final pass is charged at its own smaller shape, not as a
// full-size pass — in the makespan, the pipeline's busy time and the
// class's seconds alike.
func TestEvaluateExactTailPass(t *testing.T) {
	shrink := func(req pipeline.Request) pipeline.Report {
		b := min(req.Batch, 2)
		return pipeline.Report{Batch: b, StepSec: float64(b), PrefillSec: 10}
	}
	s := drainBacklog(t, model.OPT30B, shrink, 3, repeat(workload.Short, 3)...)
	// Full pass at batch 2: 10 + 99×2 = 208 s; tail pass at batch 1:
	// 10 + 99×1 = 109 s. Ceil accounting would charge 2×208 = 416 s.
	const want = 208.0 + 109
	if s.MakespanSec != want {
		t.Errorf("makespan %v, want %v (full pass + exact tail pass)", s.MakespanSec, want)
	}
	if got := s.Pipelines[0].BusySec; got != want {
		t.Errorf("pipeline busy %v, want %v", got, want)
	}
	if got := s.PerClassSec[workload.Short.Name]; got != want {
		t.Errorf("%s seconds %v, want %v", workload.Short.Name, got, want)
	}
}

// Failed-work accounting: OOM batches keep their jobs out of OutputTokens
// and the makespan but surface them in FailedJobs/FailedJobIDs.
func TestEvaluateFailedJobs(t *testing.T) {
	jobs := []workload.Class{workload.Short, workload.Short, workload.Long} // batches {0,1}, {2}
	longOOM := func(req pipeline.Request) pipeline.Report {
		if req.Context == workload.Long.Input {
			return pipeline.Report{OOM: true, Reason: "storage OOM"}
		}
		return pipeline.Report{Batch: req.Batch, StepSec: 1, PrefillSec: 1}
	}
	s := drainBacklog(t, model.OPT30B, longOOM, 2, jobs...)
	if s.Requests != 3 || s.FailedJobs != 1 || s.Completed != 2 {
		t.Errorf("job accounting %+v", s)
	}
	if len(s.FailedJobIDs) != 1 || s.FailedJobIDs[0] != 2 {
		t.Errorf("failed IDs %v, want [2]", s.FailedJobIDs)
	}
	if s.OutputTokens != 2*int64(workload.Short.Output) {
		t.Errorf("tokens %d include failed work", s.OutputTokens)
	}
	// An engine reporting a non-OOM zero batch is equally unrunnable.
	zero := func(pipeline.Request) pipeline.Report { return pipeline.Report{Batch: 0, StepSec: 1} }
	s = drainBacklog(t, model.OPT30B, zero, 2, jobs...)
	if s.FailedJobs != 3 || s.FailedBatches != 2 {
		t.Errorf("zero-batch reports not treated as failures: %+v", s)
	}
}

// Integration: HILOS completes the same backlog faster than the FlexGen
// baseline on the real engines.
func TestHILOSFinishesBacklogFaster(t *testing.T) {
	tb := device.DefaultTestbed()
	gen, err := workload.NewGenerator(3, workload.AzureLikeMix())
	if err != nil {
		t.Fatal(err)
	}
	trace := gen.Trace(64)
	m := model.OPT66B
	flex := baseline.FlexSSD(tb)
	sFlex := drainBacklog(t, m, func(req pipeline.Request) pipeline.Report { return flex.Run(tb, req) }, 16, trace...)
	sHil := drainBacklog(t, m, func(req pipeline.Request) pipeline.Report { return core.Run(tb, req, hilosOptions(16)) }, 16, trace...)
	if sFlex.FailedBatches != 0 || sHil.FailedBatches != 0 {
		t.Fatalf("unexpected failed batches: %d / %d", sFlex.FailedBatches, sHil.FailedBatches)
	}
	if sHil.MakespanSec >= sFlex.MakespanSec {
		t.Errorf("HILOS backlog %v s not below FlexGen %v s", sHil.MakespanSec, sFlex.MakespanSec)
	}
	if sHil.OutputTokens != sFlex.OutputTokens {
		t.Error("engines produced different token counts for the same backlog")
	}
}
