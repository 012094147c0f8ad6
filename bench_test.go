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
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// --- One benchmark per paper table/figure, named by experiment ID. Each
// regenerates the corresponding experiment end to end; b.N repetitions give
// stable timings of the full harness.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	g, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	r := experiments.Runner{TB: device.DefaultTestbed()}
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

// benchBlockedAttention times one decode-shape Blocked call over a
// seq-token K/V cache of head dimension dim.
func benchBlockedAttention(b *testing.B, seq, dim int) {
	b.Helper()
	q, k, v := attentionInputs(seq, dim)
	b.SetBytes(int64(2 * seq * dim * 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attention.Blocked(q, k, v, nil, 128)
	}
}

func BenchmarkBlockedAttention4K(b *testing.B) { benchBlockedAttention(b, 4096, 128) }

// BenchmarkBlockedAttention64K exposes kernel scaling with context length:
// ns/op should grow linearly from the 4K case and allocs/op stay flat.
func BenchmarkBlockedAttention64K(b *testing.B) { benchBlockedAttention(b, 64*1024, 128) }

// attentionInputs returns a decode-shape query row and a seq-token K/V
// cache of head dimension dim.
func attentionInputs(seq, dim int) (q, k, v tensor.Mat) {
	rng := rand.New(rand.NewSource(1))
	q = tensor.RandMat(rng, 1, dim, 1)
	k = tensor.RandMat(rng, seq, dim, 1)
	v = tensor.RandMat(rng, seq, dim, 1)
	return q, k, v
}

// BenchmarkBlockedAttention1M is the 1M-token decode shape (head dim 64
// keeps K+V at 512 MB). One op streams the full megatoken K/V range
// through the block dataflow.
func BenchmarkBlockedAttention1M(b *testing.B) { benchBlockedAttention(b, 1<<20, 64) }

// BenchmarkTopKBlocksAttention64K measures the lossy block-sparse kernel on
// the decode shape: score and pool 64K tokens, select 64 blocks, attend
// over the kept 8K tokens.
func BenchmarkTopKBlocksAttention64K(b *testing.B) {
	q, k, v := attentionInputs(64*1024, 128)
	b.SetBytes(int64(2 * 64 * 1024 * 128 * 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attention.TopKBlocks(q, k, v, nil, 64, 128)
	}
}

// accelInputs returns an 8-query-head accelerator of head dimension 128
// and a seq-token K/V cache for it.
func accelInputs(tb testing.TB, seq int) (a *accel.Accelerator, q, k, v tensor.Mat) {
	tb.Helper()
	rng := rand.New(rand.NewSource(2))
	const group, dim = 8, 128
	a, err := accel.New(accel.Config{DGroup: group, HeadDim: dim})
	if err != nil {
		tb.Fatal(err)
	}
	q = tensor.RandMat(rng, group, dim, 1)
	k = tensor.RandMat(rng, seq, dim, 1)
	v = tensor.RandMat(rng, seq, dim, 1)
	return a, q, k, v
}

// benchAcceleratorAttentionWorkers pins the worker count for the accel
// parallel-datapath pair: same (group × chunk) grid, only the concurrency
// differs (results are bit-identical).
func benchAcceleratorAttentionWorkers(b *testing.B, seq, workers int) {
	b.Helper()
	a, q, k, v := accelInputs(b, seq)
	b.SetBytes(int64(2 * seq * k.Cols * 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.AttentionWorkers(q, k, v, nil, tensor.Mat{}, tensor.Mat{}, workers, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAcceleratorAttention16KSerial / ...Workers4 are the accel
// parallel-datapath pair; TestAcceleratorParallelSpeedup floors their
// ratio at 1.5x.
func BenchmarkAcceleratorAttention16KSerial(b *testing.B) {
	benchAcceleratorAttentionWorkers(b, 16*1024, 1)
}
func BenchmarkAcceleratorAttention16KWorkers4(b *testing.B) {
	benchAcceleratorAttentionWorkers(b, 16*1024, 4)
}

// BenchmarkAcceleratorANSDecode64K is the bench harness's ans-decode op:
// one decode step of a 4-query group (head dim 128) over a 64K-token FP16
// cache, with 16 buffered tokens scored on the host by attention.Scores and
// merged as the delayed-writeback partial.
func BenchmarkAcceleratorANSDecode64K(b *testing.B) {
	const group, dim, seq, buffered = 4, 128, 64 * 1024, 16
	rng := rand.New(rand.NewSource(2))
	a, err := accel.New(accel.Config{DGroup: group, HeadDim: dim})
	if err != nil {
		b.Fatal(err)
	}
	q := tensor.RandMat(rng, group, dim, 1).RoundFP16()
	k := tensor.RandMat(rng, seq, dim, 1).RoundFP16()
	v := tensor.RandMat(rng, seq, dim, 1).RoundFP16()
	kBuf := tensor.RandMat(rng, buffered, dim, 1).RoundFP16()
	vBuf := tensor.RandMat(rng, buffered, dim, 1).RoundFP16()
	b.SetBytes(int64(2 * seq * dim * 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		host := attention.Scores(q, kBuf)
		if _, err := a.Attention(q, k, v, nil, host, vBuf); err != nil {
			b.Fatal(err)
		}
	}
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
		rep := core.Run(tb, req, core.Options{Devices: 16, XCache: true, DelayedWriteback: true, Alpha: -1, SpillInterval: 16})
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
// instrumentation, not pipeline math. Telemetry must stay opt-in with
// near-zero disabled cost; TestTelemetryOverhead caps the On/Off ratio.

// clusterBenchInput returns a bursty two-class trace over a constant-cost
// fleet. With instrument set, the config carries a registry and a stream
// with one subscriber, closed when tb ends.
func clusterBenchInput(tb testing.TB, instrument bool) (cluster.Config, []cluster.Request) {
	tb.Helper()
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
		tb.Fatal(err)
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
	if instrument {
		stream := telemetry.NewStream()
		tb.Cleanup(stream.Close)
		stream.Subscribe(1024)
		cfg.Telemetry = cluster.NewTelemetry(telemetry.NewRegistry(), stream)
	}
	return cfg, reqs
}

// runCluster replays reqs once and checks something completed.
func runCluster(tb testing.TB, cfg cluster.Config, reqs []cluster.Request) {
	s, err := cluster.Run(cfg, reqs)
	if err != nil {
		tb.Fatal(err)
	}
	if s.Completed == 0 {
		tb.Fatal("no completions")
	}
}

func benchCluster(b *testing.B, instrument bool) {
	cfg, reqs := clusterBenchInput(b, instrument)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCluster(b, cfg, reqs)
	}
}

func BenchmarkClusterTelemetryOff(b *testing.B) { benchCluster(b, false) }
func BenchmarkClusterTelemetryOn(b *testing.B)  { benchCluster(b, true) }

// BenchmarkClusterReplayPreempt replays the benchmark's replay-preempt
// shape through the facade: 20k Azure-mix requests at 4 per second over two
// 8-device HILOS hosts, a FlexGen-DRAM host and an 8-device InstInfer tier,
// with a 60 s deadline class for Short requests and preemption under
// close-at-admission batching. About 50k batch evictions per replay, so
// B/op and allocs/op show whether the preemption branch allocates per
// eviction.
func BenchmarkClusterReplayPreempt(b *testing.B) {
	m, err := ModelByName("OPT-30B")
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := NewTimedWorkloadTrace(1, 20_000, 4)
	if err != nil {
		b.Fatal(err)
	}
	opts := []ClusterOption{
		WithFleet(SystemHILOS, 2, 8),
		WithFleet(SystemFlexDRAM, 1, 0),
		WithFleet(SystemInstInfer, 1, 8),
		WithAdmission(16, 30),
		WithDispatchPolicy(DispatchLeastLoaded),
		WithPriorityClasses(PriorityClass{Class: "Short", Priority: 1, DeadlineSec: 60}),
		WithPreemption(),
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Cluster(m, reqs, opts...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterReplayOnline replays the benchmark's replay-online shape
// through the facade: the replay-preempt fleet, trace and deadline class,
// but with continuous batching, so batches form when a pipeline frees and
// nothing is ever evicted. Most events find every pipeline busy, so ns/op
// shows what continuous dispatch spends on events it cannot act on.
func BenchmarkClusterReplayOnline(b *testing.B) {
	m, err := ModelByName("OPT-30B")
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := NewTimedWorkloadTrace(1, 20_000, 4)
	if err != nil {
		b.Fatal(err)
	}
	opts := []ClusterOption{
		WithFleet(SystemHILOS, 2, 8),
		WithFleet(SystemFlexDRAM, 1, 0),
		WithFleet(SystemInstInfer, 1, 8),
		WithAdmission(16, 30),
		WithDispatchPolicy(DispatchLeastLoaded),
		WithPriorityClasses(PriorityClass{Class: "Short", Priority: 1, DeadlineSec: 60}),
		WithPreemption(),
		WithContinuousBatching(),
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Cluster(m, reqs, opts...); err != nil {
			b.Fatal(err)
		}
	}
}
