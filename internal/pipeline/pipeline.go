// Package pipeline provides the shared vocabulary of the timing engines:
// inference requests, per-system reports with stage breakdowns, capacity
// fitting (the "CPU OOM" behaviour of Figures 10-12), and Step, the decoding
// step every task-graph engine shares: per-layer weight streaming, the GPU's
// QKV projection and MLP around the engine's own attention tasks, the step
// barrier, the report fill, and the prefill model (all systems use
// FlashAttention for prefill, §6.1).
package pipeline

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/sim"
)

// Breakdown labels, matching the stacked bars of Figures 4(b) and 11(b).
const (
	LabelLoadWeight = "LoadWeight"
	LabelLoadKV     = "LoadKVCache"
	LabelStoreKV    = "StoreKVCache"
	LabelCompute    = "HostCompute"
	LabelXCache     = "XCache" // HILOS-only: GDS reads + GPU regeneration
)

// Resource classes used for utilization and energy accounting.
const (
	ResGPU       = "GPU"
	ResCPU       = "CPU"
	ResGPULink   = "GPULink"
	ResUplink    = "Uplink"
	ResGDS       = "GDS"
	ResStorRead  = "StorRead"
	ResStorWrite = "StorWrite"
	ResNSP       = "NSP"
)

// Request describes one offline-inference workload point.
type Request struct {
	Model     model.Config
	Batch     int // requested batch size (systems may shrink it to fit)
	Context   int // prompt length s
	OutputLen int // generated tokens n
	// NoTrace asks the engine not to retain the per-task decode timeline
	// (Report.Trace stays nil). Sweeps and cache prewarming that only read
	// scalar results set it to skip the per-task allocation; timing,
	// Breakdown and ResourceBusy are unaffected. Part of the request's
	// identity, so cached traced and untraced reports never alias.
	NoTrace bool
}

// Validate reports malformed requests.
func (r Request) Validate() error {
	if err := r.Model.Validate(); err != nil {
		return err
	}
	if r.Batch < 1 || r.Context < 1 || r.OutputLen < 1 {
		return fmt.Errorf("pipeline: non-positive request %+v", r)
	}
	return nil
}

// Report is the outcome of simulating one system on one request.
type Report struct {
	System  string
	Model   string
	Batch   int // effective batch after capacity fitting (0 when OOM)
	Context int

	OOM    bool
	Reason string // populated when OOM

	PrefillSec float64
	StepSec    float64 // steady-state decoding step latency

	// Breakdown maps stage labels to per-step busy seconds.
	Breakdown map[string]float64
	// ResourceBusy maps resource classes to per-step busy seconds.
	ResourceBusy map[string]float64

	// HostUtil* are the Fig. 4(c) host utilizations in [0,1].
	HostUtilCPU     float64
	HostUtilGPU     float64
	HostUtilDRAMCap float64

	// Write accounting (physical storage bytes) for endurance and §6.6.
	DecodeWriteBytesPerStep float64
	PrefillWriteBytes       float64

	Devices int // storage devices in the configuration

	// Trace holds the scheduled task records of one steady-state decoding
	// step (for Chrome-trace export via internal/trace).
	Trace []sim.TaskRecord
}

// DecodeTokPerSec returns the steady-state decoding throughput.
func (r Report) DecodeTokPerSec() float64 {
	if r.OOM || r.StepSec <= 0 {
		return 0
	}
	return float64(r.Batch) / r.StepSec
}

// TotalSec returns end-to-end latency for generating n output tokens
// (Fig. 14: prefill plus n−1 decode steps).
func (r Report) TotalSec(n int) float64 {
	if r.OOM {
		return 0
	}
	return r.PrefillSec + float64(float64(n-1)*r.StepSec)
}

// BreakdownShare returns label busy time over the sum of all labels.
func (r Report) BreakdownShare(label string) float64 {
	var total float64
	for _, v := range r.Breakdown {
		total += v
	}
	if total <= 0 {
		return 0
	}
	return r.Breakdown[label] / total
}

// WeightsOnStorage reports whether a model's weights live on storage rather
// than host DRAM (§6.1: "models exceeding 100B parameters are offloaded to
// storage").
func WeightsOnStorage(m model.Config) bool {
	return m.ParamCount() > 100e9
}

// FitBatchDRAM returns the largest batch ≤ want whose KV cache (plus weights
// when they are DRAM-resident, plus activations) fits the usable host DRAM.
// Returns 0 when even batch 1 does not fit — the paper's "CPU OOM".
func FitBatchDRAM(tb device.Testbed, m model.Config, ctx, want int) int {
	usable := int64(float64(tb.DRAM.Bytes) * tb.DRAMUsableFrac)
	var fixed int64
	if !WeightsOnStorage(m) {
		fixed = m.TotalWeightBytes()
	}
	for bs := want; bs >= 1; bs-- {
		need := fixed + m.KVCacheBytes(bs, ctx) + m.ActivationBytes(bs)
		if need <= usable {
			return bs
		}
	}
	return 0
}

// FitBatchStorage returns the largest batch ≤ want whose KV cache (plus
// weights when storage-resident) fits the aggregate storage capacity.
func FitBatchStorage(m model.Config, ctx, want int, devCap int64, devices int) int {
	total := devCap * int64(devices)
	var fixed int64
	if WeightsOnStorage(m) {
		fixed = m.TotalWeightBytes()
	}
	for bs := want; bs >= 1; bs-- {
		if fixed+m.KVCacheBytes(bs, ctx) <= total {
			return bs
		}
	}
	return 0
}

// HostDRAMShare returns the share of host DRAM a system occupies: its
// DRAM-resident weights plus extra bytes of its own, capped at 1.
func HostDRAMShare(tb device.Testbed, m model.Config, extra int64) float64 {
	used := extra
	if !WeightsOnStorage(m) {
		used += m.TotalWeightBytes()
	}
	return min(float64(used)/float64(tb.DRAM.Bytes), 1)
}

// Step builds one steady-state decoding step of a task-graph engine. Every
// such engine decodes the same way: each layer's attention and MLP weights
// stream to the GPU (read from Src first when the weights live on storage),
// the GPU projects q/k/v, the engine's own attention path runs, and the GPU
// runs the MLP. Engines differ only in that attention path and where the KV
// cache lives, so each layer is Begin, the engine's attention tasks, then
// End; Finish schedules the step and fills the report.
//
// The scheduler breaks ties by task creation order, so the order in which
// Begin, End and the engine create tasks is part of every report.
type Step struct {
	E    *sim.Engine
	GPU  *sim.Resource
	Link *sim.Resource // the host→GPU link the weights cross
	// Src is where storage-resident weights are read from before they
	// cross Link. The engine creates it and sets it before the first Begin.
	Src *sim.Resource

	tb        device.Testbed
	m         model.Config
	bs        int
	onStorage bool     // WeightsOnStorage(m), which sums every layer
	wM        sim.Task // the current layer's MLP weights
	prevMLP   sim.Task
}

// NewStep starts a decoding step of model m at batch bs with the GPU and a
// host→GPU link of rate linkBW. record=false skips timeline retention
// (Request.NoTrace).
func NewStep(tb device.Testbed, m model.Config, bs int, linkBW float64, record bool) Step {
	e := sim.NewEngine()
	e.RecordTimeline(record)
	return Step{
		E: e, GPU: e.Resource(ResGPU, 1), Link: e.Resource(ResGPULink, linkBW),
		tb: tb, m: m, bs: bs, onStorage: WeightsOnStorage(m),
	}
}

// Begin streams layer l's weights and returns its QKV projection, which
// waits for the attention weights and the previous layer's MLP.
func (s *Step) Begin(l int) sim.Task {
	wABytes := float64(s.m.AttnWeightBytesPerLayer())
	wMBytes := float64(s.m.MLPActiveWeightBytesPerLayer(l))
	var wA sim.Task
	if s.onStorage {
		sA := s.E.Task(LabelLoadWeight, s.Src, wABytes)
		wA = s.E.Task(LabelLoadWeight, s.Link, wABytes, sA)
		sM := s.E.Task(LabelLoadWeight, s.Src, wMBytes)
		s.wM = s.E.Task(LabelLoadWeight, s.Link, wMBytes, sM)
	} else {
		wA = s.E.Task(LabelLoadWeight, s.Link, wABytes)
		s.wM = s.E.Task(LabelLoadWeight, s.Link, wMBytes)
	}
	// float64(...) keeps x/2 (compiled as x*0.5) from fusing into the add.
	sec := s.tb.GPU.ComputeTime(s.m.ProjFLOPsPerTokenLayer()*float64(s.bs), wABytes)
	return s.E.Task(LabelCompute, s.GPU, sec+float64(s.tb.OverheadPerLayer/2), wA, s.prevMLP)
}

// End runs layer l's MLP once its attention output (join) and MLP weights
// are in.
func (s *Step) End(l int, join sim.Task) {
	sec := s.tb.GPU.ComputeTime(s.m.MLPFLOPsPerTokenLayer(l)*float64(s.bs),
		float64(s.m.MLPActiveWeightBytesPerLayer(l)))
	s.prevMLP = s.E.Task(LabelCompute, s.GPU, sec+float64(s.tb.OverheadPerLayer/2), join, s.wM)
}

// Finish ends the step at the last MLP and the KV commits, schedules it, and
// fills rep's step latency, stage and resource busy times, timeline and
// host CPU and GPU utilizations.
func (s *Step) Finish(rep *Report, commits ...sim.Task) {
	step := s.E.Barrier("step", append([]sim.Task{s.prevMLP}, commits...)...)
	res := s.E.Run()
	rep.StepSec = res.Finish(step)
	rep.Breakdown = res.ByLabel
	rep.ResourceBusy = res.ResourceBusy
	rep.Trace = res.Tasks
	rep.HostUtilCPU = res.ResourceBusy[ResCPU] / rep.StepSec
	rep.HostUtilGPU = res.ResourceBusy[ResGPU] / rep.StepSec
}

// Prefill sets rep.PrefillSec: compute-bound FlashAttention on the GPU (all
// systems use it for prefill, §6.1), pipelined against streaming the weights
// over the step's Link (and Src, when they live on storage) and writing
// storeBytes of prompt KV/X to its home at storeBW. Activations that exceed
// GPU memory force chunked execution with weight reloads (FlexGen's block
// schedule).
func (s *Step) Prefill(rep *Report, storeBW float64, storeBytes int64) {
	m, gpu := s.m, s.tb.GPU
	compute := m.PrefillFLOPs(s.bs, rep.Context) / gpu.GEMMFLOPS

	actBytes := int64(s.bs) * int64(rep.Context) * int64(m.Hidden) * model.BytesPerElem
	usableGPU := int64(float64(gpu.MemBytes) * 0.6)
	chunks := 1
	if actBytes > usableGPU {
		chunks = int((actBytes + usableGPU - 1) / usableGPU)
	}
	weightBW := s.Link.Rate
	if s.onStorage {
		weightBW = min(weightBW, s.Src.Rate)
	}
	weights := float64(m.TotalWeightBytes()) * float64(chunks) / weightBW
	store := float64(storeBytes) / storeBW
	// The three streams pipeline; the slowest dominates.
	rep.PrefillSec = max(compute, weights, store)
}
