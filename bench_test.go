package hilos

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/accel"
	"repro/internal/attention"
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/estimator"
	"repro/internal/experiments"
	"repro/internal/longbench"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/repcache"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// --- One benchmark per paper table/figure (DESIGN.md §3 index). Each
// regenerates the corresponding experiment end to end; b.N repetitions give
// stable timings of the full harness.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	g, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	r := experiments.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Cold cache per iteration: each op measures full table generation
		// (cross-point dedup included), independent of b.N and of which
		// benchmarks ran earlier in the process.
		repcache.Reset()
		tab := g.Run(r)
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkFig2Motivation(b *testing.B)       { benchExperiment(b, "fig2") }
func BenchmarkFig4Breakdown(b *testing.B)        { benchExperiment(b, "fig4") }
func BenchmarkTable3Resources(b *testing.B)      { benchExperiment(b, "table3") }
func BenchmarkFig10Throughput(b *testing.B)      { benchExperiment(b, "fig10") }
func BenchmarkFig11BatchSweep(b *testing.B)      { benchExperiment(b, "fig11") }
func BenchmarkFig12aKernels(b *testing.B)        { benchExperiment(b, "fig12a") }
func BenchmarkFig12bModels(b *testing.B)         { benchExperiment(b, "fig12b") }
func BenchmarkFig13SpillSweep(b *testing.B)      { benchExperiment(b, "fig13") }
func BenchmarkFig14OutputLen(b *testing.B)       { benchExperiment(b, "fig14") }
func BenchmarkFig15Ablation(b *testing.B)        { benchExperiment(b, "fig15") }
func BenchmarkFig16aCost(b *testing.B)           { benchExperiment(b, "fig16a") }
func BenchmarkFig16bEndurance(b *testing.B)      { benchExperiment(b, "fig16b") }
func BenchmarkFig17aEnergy(b *testing.B)         { benchExperiment(b, "fig17a") }
func BenchmarkFig17bMultiNode(b *testing.B)      { benchExperiment(b, "fig17b") }
func BenchmarkEstimatorCorrelation(b *testing.B) { benchExperiment(b, "est") }
func BenchmarkISPProjection(b *testing.B)        { benchExperiment(b, "isp") }
func BenchmarkExtFutureCSD(b *testing.B)         { benchExperiment(b, "ext-csd") }
func BenchmarkExtCXL(b *testing.B)               { benchExperiment(b, "ext-cxl") }
func BenchmarkExtFTL(b *testing.B)               { benchExperiment(b, "ext-ftl") }

// BenchmarkFig18cAccuracy runs one task of the accuracy suite per iteration
// (the full five-task suite is exercised by the fig18c experiment and takes
// ~10 s; benchmark the unit of work instead).
func BenchmarkFig18cAccuracy(b *testing.B) {
	task := longbench.Suite()[2] // the 1K-context task
	task.Samples = 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := task.Score(int64(i), longbench.Blocked); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the functional and timing substrates.

func benchBlockedAttention(b *testing.B, seq int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	q := tensor.RandMat(rng, 1, 128, 1)
	k := tensor.RandMat(rng, seq, 128, 1)
	v := tensor.RandMat(rng, seq, 128, 1)
	b.SetBytes(int64(2 * seq * 128 * 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attention.Blocked(q, k, v, nil, 128)
	}
}

func BenchmarkBlockedAttention4K(b *testing.B) { benchBlockedAttention(b, 4096) }

// BenchmarkBlockedAttention64K exposes kernel scaling with context length:
// ns/op should grow linearly from the 4K case and allocs/op stay flat (all
// scratch comes from the sync.Pool arenas). Runs with the default worker
// count; the Serial/Workers4 pair below is the machine-independent gate.
func BenchmarkBlockedAttention64K(b *testing.B) { benchBlockedAttention(b, 64*1024) }

// benchBlockedAttentionWorkers pins the worker count explicitly so the
// Serial/Workers4 ratio is comparable across machines: same shape, same
// chunk partition, only the concurrency differs (results are bit-identical).
func benchBlockedAttentionWorkers(b *testing.B, seq, dim, workers int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	q := tensor.RandMat(rng, 1, dim, 1)
	k := tensor.RandMat(rng, seq, dim, 1)
	v := tensor.RandMat(rng, seq, dim, 1)
	b.SetBytes(int64(2 * seq * dim * 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attention.BlockedWorkers(q, k, v, nil, 128, workers)
	}
}

// BenchmarkBlockedAttention64KSerial / ...Workers4 are the parallel-kernel
// regression pair: hilos-bench gates their ns/op ratio at ≥ 2x (decode-shape
// chunk sharding must actually scale), machine-independently.
func BenchmarkBlockedAttention64KSerial(b *testing.B) {
	benchBlockedAttentionWorkers(b, 64*1024, 128, 1)
}
func BenchmarkBlockedAttention64KWorkers4(b *testing.B) {
	benchBlockedAttentionWorkers(b, 64*1024, 128, 4)
}

// BenchmarkBlockedAttention1M is the 1M-token decode shape (head dim 64
// keeps K+V at 512 MB). One op streams the full megatoken K/V range through
// the chunked parallel dataflow.
func BenchmarkBlockedAttention1M(b *testing.B) { benchBlockedAttentionWorkers(b, 1<<20, 64, 4) }

// BenchmarkGQAAttention64K measures the shared-K/V-traversal group kernel:
// 8 query heads, one 64K cache, each K row read once per block for the
// whole group.
func BenchmarkGQAAttention64K(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const seq, dim, group = 64 * 1024, 128, 8
	q := tensor.RandMat(rng, group, dim, 1)
	k := tensor.RandMat(rng, seq, dim, 1)
	v := tensor.RandMat(rng, seq, dim, 1)
	b.SetBytes(int64(2 * seq * dim * 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attention.GQAWorkers(q, k, v, nil, 128, 4)
	}
}

// BenchmarkTopKBlocksAttention64K measures the lossy block-sparse kernel on
// the decode shape: parallel score+pool over 64K tokens, serial selection of
// 64 blocks, attention over the kept 8K tokens.
func BenchmarkTopKBlocksAttention64K(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const seq, dim = 64 * 1024, 128
	q := tensor.RandMat(rng, 1, dim, 1)
	k := tensor.RandMat(rng, seq, dim, 1)
	v := tensor.RandMat(rng, seq, dim, 1)
	b.SetBytes(int64(2 * seq * dim * 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attention.TopKBlocksWorkers(q, k, v, nil, 64, 128, 4)
	}
}

// BenchmarkDot vs BenchmarkDotRef is the striped-lane regression pair:
// hilos-bench floors the 8-lane striped Dot at ≥ 1.3x over the retained
// scalar reference on the head-dimension-scale vectors the kernels feed it.
func benchDot(b *testing.B, dot func(a, c []float32) float32) {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	const n = 4096
	x := make([]float32, n)
	y := make([]float32, n)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
		y[i] = float32(rng.NormFloat64())
	}
	b.SetBytes(int64(2 * n * 4))
	b.ResetTimer()
	var sink float32
	for i := 0; i < b.N; i++ {
		sink += dot(x, y)
	}
	if math.IsNaN(float64(sink)) {
		b.Fatal("NaN sink")
	}
}

func BenchmarkDot(b *testing.B)    { benchDot(b, tensor.Dot) }
func BenchmarkDotRef(b *testing.B) { benchDot(b, tensor.DotRef) }

// BenchmarkTransposeBlocked vs BenchmarkTransposeRef measures the cache win
// of the 64×64 tiled transpose on a matrix whose columns stride far past L1
// (2048×2048 float32 = 16 MiB).
func benchTranspose(b *testing.B, t func(m tensor.Mat) tensor.Mat) {
	b.Helper()
	rng := rand.New(rand.NewSource(6))
	m := tensor.RandMat(rng, 2048, 2048, 1)
	b.SetBytes(int64(2048 * 2048 * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := t(m); out.Rows != m.Cols {
			b.Fatal("bad shape")
		}
	}
}

func BenchmarkTransposeBlocked(b *testing.B) { benchTranspose(b, tensor.Mat.T) }
func BenchmarkTransposeRef(b *testing.B)     { benchTranspose(b, tensor.Mat.TransposeRef) }

// benchAcceleratorAttentionWorkers pins the worker count for the accel
// parallel-datapath regression pair: same (group × chunk) grid, only the
// concurrency differs (results are bit-identical).
func benchAcceleratorAttentionWorkers(b *testing.B, seq, workers int) {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	const group, dim = 8, 128
	a, err := accel.New(accel.Config{DGroup: group, HeadDim: dim})
	if err != nil {
		b.Fatal(err)
	}
	q := tensor.RandMat(rng, group, dim, 1)
	k := tensor.RandMat(rng, seq, dim, 1)
	v := tensor.RandMat(rng, seq, dim, 1)
	b.SetBytes(int64(2 * seq * dim * 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.AttentionWorkers(q, k, v, nil, tensor.Mat{}, tensor.Mat{}, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAcceleratorAttention16KSerial / ...Workers4 gate the accel
// parallel datapath the same way the Blocked 64K pair gates the attention
// kernels: hilos-bench floors the ns/op ratio at ≥ 4 procs.
func BenchmarkAcceleratorAttention16KSerial(b *testing.B) {
	benchAcceleratorAttentionWorkers(b, 16*1024, 1)
}
func BenchmarkAcceleratorAttention16KWorkers4(b *testing.B) {
	benchAcceleratorAttentionWorkers(b, 16*1024, 4)
}

func BenchmarkAcceleratorAttention4K(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a, err := accel.New(accel.Config{DGroup: 1, HeadDim: 128})
	if err != nil {
		b.Fatal(err)
	}
	q := tensor.RandMat(rng, 1, 128, 1)
	k := tensor.RandMat(rng, 4096, 128, 1)
	v := tensor.RandMat(rng, 4096, 128, 1)
	b.SetBytes(int64(2 * 4096 * 128 * 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Attention(q, k, v, nil, tensor.Mat{}, tensor.Mat{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwoPassSoftmax(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := make([]float32, 32*1024)
	for i := range x {
		x[i] = float32(rng.NormFloat64() * 4)
	}
	b.SetBytes(int64(len(x) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attention.SoftmaxTwoPass(x, nil, 128)
	}
}

// naivePartialAddToken is the pre-optimization AddToken retained for the
// micro-benchmark delta: it converted the accumulator through float64 on
// every element of the rescale and accumulate loops.
func naivePartialAddToken(p *attention.Partial, score float32, vrow []float32) {
	s := float64(score)
	if s > p.Stats.M {
		r := math.Exp(p.Stats.M - s)
		for i := range p.Acc {
			p.Acc[i] = float32(float64(p.Acc[i]) * r)
		}
		p.Stats.Z = p.Stats.Z * r
		p.Stats.M = s
	}
	w := math.Exp(s - p.Stats.M)
	p.Stats.Z += w
	for i := range p.Acc {
		p.Acc[i] += float32(w * float64(vrow[i]))
	}
}

func benchPartialTokens(b *testing.B, add func(p *attention.Partial, s float32, vrow []float32)) {
	b.Helper()
	const seq, dv = 4096, 128
	rng := rand.New(rand.NewSource(4))
	scores := make([]float32, seq)
	for i := range scores {
		scores[i] = float32(rng.NormFloat64() * 3)
	}
	v := tensor.RandMat(rng, seq, dv, 1)
	p := attention.NewPartial(dv)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Reset()
		for j, s := range scores {
			add(&p, s, v.Row(j))
		}
	}
}

// BenchmarkPartialAddToken vs BenchmarkPartialAddTokenNaive shows the
// ns-per-token win from hoisting the float64↔float32 conversions out of the
// accumulator loops (4096 tokens × 128 dims per op).
func BenchmarkPartialAddToken(b *testing.B) {
	benchPartialTokens(b, func(p *attention.Partial, s float32, vrow []float32) {
		p.AddToken(s, vrow)
	})
}

func BenchmarkPartialAddTokenNaive(b *testing.B) {
	benchPartialTokens(b, naivePartialAddToken)
}

// BenchmarkPartialAddBlock folds the same tokens through the block-level
// streaming update (one accumulator rescale per 128-token block).
func BenchmarkPartialAddBlock(b *testing.B) {
	const seq, dv, bs = 4096, 128, 128
	rng := rand.New(rand.NewSource(4))
	scores := make([]float32, seq)
	for i := range scores {
		scores[i] = float32(rng.NormFloat64() * 3)
	}
	v := tensor.RandMat(rng, seq, dv, 1)
	p := attention.NewPartial(dv)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Reset()
		for lo := 0; lo < seq; lo += bs {
			p.AddBlock(scores[lo:lo+bs], v, lo)
		}
	}
}

func BenchmarkSimEngineDecodeStep(b *testing.B) {
	tb := device.DefaultTestbed()
	req := pipeline.Request{Model: model.OPT175B, Batch: 16, Context: 131072, OutputLen: 64}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := core.Run(tb, req, core.DefaultOptions(16))
		if rep.OOM {
			b.Fatal(rep.Reason)
		}
	}
}

func BenchmarkBaselineDecodeStep(b *testing.B) {
	tb := device.DefaultTestbed()
	req := pipeline.Request{Model: model.OPT175B, Batch: 16, Context: 131072, OutputLen: 64}
	flex := baseline.FlexSSD(tb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := flex.Run(tb, req)
		if rep.OOM {
			b.Fatal(rep.Reason)
		}
	}
}

// schedulerWorkload builds the 5000-task two-resource pipeline graph both
// scheduler benchmarks share; run selects the heap event loop or the
// retained O(n²) reference, and timeline toggles the TaskRecord opt-out.
func schedulerWorkload(b *testing.B, run func(e *sim.Engine) sim.Result, timeline bool) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		e.RecordTimeline(timeline)
		r1 := e.Resource("a", 10)
		r2 := e.Resource("b", 5)
		var prev sim.Task
		for l := 0; l < 2500; l++ {
			t1 := e.Task("x", r1, 3, prev)
			prev = e.Task("y", r2, 2, t1)
		}
		run(e)
	}
}

func BenchmarkSchedulerListScheduling(b *testing.B) {
	schedulerWorkload(b, func(e *sim.Engine) sim.Result { return e.Run() }, true)
}

// BenchmarkSchedulerListSchedulingReference measures the retained O(n²)
// scheduler on the same graph; the ratio to BenchmarkSchedulerListScheduling
// is the machine-independent speedup cmd/hilos-bench -bench-check guards.
func BenchmarkSchedulerListSchedulingReference(b *testing.B) {
	schedulerWorkload(b, func(e *sim.Engine) sim.Result { return e.RunReference() }, true)
}

// BenchmarkSchedulerNoTimeline measures the heap scheduler with the
// per-task TaskRecord append opted out.
func BenchmarkSchedulerNoTimeline(b *testing.B) {
	schedulerWorkload(b, func(e *sim.Engine) sim.Result { return e.Run() }, false)
}

// BenchmarkScheduler1M pushes the event-driven scheduler to a 1M-task DAG
// (the per-token granularity of a 1M-token decode timeline), timeline
// recording off. One op builds and schedules the full graph in a pooled
// arena; completing at all is the point — the O(n²) reference would take
// hours here.
func BenchmarkScheduler1M(b *testing.B) {
	const pairs = 1 << 19 // 2 tasks per pair = 1,048,576 tasks
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		e.RecordTimeline(false)
		r1 := e.Resource("a", 10)
		r2 := e.Resource("b", 5)
		var prev sim.Task
		for l := 0; l < pairs; l++ {
			t1 := e.Task("x", r1, 3, prev)
			prev = e.Task("y", r2, 2, t1)
		}
		res := e.Run()
		if res.Makespan <= 0 {
			b.Fatal("empty schedule")
		}
	}
}

func BenchmarkEstimatorSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts := estimator.Sweep()
		if _, err := estimator.Correlation(pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCycleModelKernelTime(b *testing.B) {
	cm := accel.DefaultCycleModel(5, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if cm.KernelTime(131072) <= 0 {
			b.Fatal("non-positive kernel time")
		}
	}
}

// --- Cluster scheduling loop with and without the telemetry layer.
// Synthetic constant-cost fleet so the measurement is the event loop and
// instrumentation, not pipeline math. The Off variant is the regression
// gate: telemetry must stay opt-in with near-zero disabled cost, and the
// On/Off ratio is capped by hilos-bench.

func clusterBenchInput(b *testing.B) (cluster.Config, []cluster.Request) {
	b.Helper()
	constRun := func(totalSec float64) cluster.RunFunc {
		return func(req pipeline.Request) pipeline.Report {
			return pipeline.Report{Batch: req.Batch, PrefillSec: totalSec, StepSec: 0}
		}
	}
	cfg := cluster.Config{
		Model: model.OPT30B,
		Fleet: []cluster.Pipeline{
			{Name: "hilos-0", Run: constRun(40)},
			{Name: "hilos-1", Run: constRun(40)},
			{Name: "hilos-2", Run: constRun(40)},
			{Name: "dram-0", Run: constRun(15)},
		},
		Policy:    cluster.LeastLoaded,
		Admission: cluster.Admission{MaxBatch: 8, MaxWaitSec: 20, Preemption: true},
	}
	arrivals, err := workload.BurstyArrivals(11, 4, 512)
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]cluster.Request, len(arrivals))
	for i, at := range arrivals {
		r := cluster.Request{ID: i, Class: workload.Medium, ArrivalSec: at}
		if i%2 == 0 {
			r.Class = workload.Short
			r.Priority = 1
			r.DeadlineSec = 120
		}
		reqs[i] = r
	}
	return cfg, reqs
}

func benchCluster(b *testing.B, instrument bool) {
	cfg, reqs := clusterBenchInput(b)
	if instrument {
		reg := telemetry.NewRegistry()
		stream := telemetry.NewStream()
		defer stream.Close()
		sub := stream.Subscribe(1024)
		_ = sub
		cfg.Telemetry = cluster.NewTelemetry(reg, stream)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := cluster.Run(cfg, reqs)
		if err != nil {
			b.Fatal(err)
		}
		if s.Completed == 0 {
			b.Fatal("no completions")
		}
	}
}

func BenchmarkClusterTelemetryOff(b *testing.B) { benchCluster(b, false) }
func BenchmarkClusterTelemetryOn(b *testing.B)  { benchCluster(b, true) }
