// Package pipeline provides the shared vocabulary of the timing engines:
// inference requests, per-system reports with stage breakdowns, capacity
// fitting (the "CPU OOM" behaviour of Figures 10-12), and the prefill model
// every system shares (all systems use FlashAttention for prefill, §6.1).
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

// PrefillInputs parameterizes the shared prefill model.
type PrefillInputs struct {
	WeightLoadBW float64 // host→GPU effective bandwidth for weights
	WeightSrcBW  float64 // storage read bandwidth when weights are on storage (0 = DRAM-resident)
	KVStoreBW    float64 // bandwidth for writing the prompt KV/X to its home
	KVStoreBytes int64   // bytes written during prefill (KV, or α-mixed X/KV)
}

// Prefill returns the prefill latency: compute-bound FlashAttention on the
// GPU, pipelined against weight streaming and KV writeback. Activations that
// exceed GPU memory force chunked execution with weight reloads (FlexGen's
// block schedule).
func Prefill(tb device.Testbed, m model.Config, bs, s int, in PrefillInputs) float64 {
	compute := m.PrefillFLOPs(bs, s) / tb.GPU.GEMMFLOPS

	actBytes := int64(bs) * int64(s) * int64(m.Hidden) * model.BytesPerElem
	usableGPU := int64(float64(tb.GPU.MemBytes) * 0.6)
	chunks := 1
	if actBytes > usableGPU {
		chunks = int((actBytes + usableGPU - 1) / usableGPU)
	}
	weightBW := in.WeightLoadBW
	if in.WeightSrcBW > 0 && in.WeightSrcBW < weightBW {
		weightBW = in.WeightSrcBW
	}
	weights := float64(m.TotalWeightBytes()) * float64(chunks) / weightBW

	var store float64
	if in.KVStoreBW > 0 {
		store = float64(in.KVStoreBytes) / in.KVStoreBW
	}
	// The three streams pipeline; the slowest dominates.
	t := compute
	if weights > t {
		t = weights
	}
	if store > t {
		t = store
	}
	return t
}
