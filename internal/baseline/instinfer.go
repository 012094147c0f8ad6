package baseline

import (
	"repro/internal/accel"
	"repro/internal/device"
	"repro/internal/longbench"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// InstRetrievalRatio is the lossy KV compression ratio: the devices read 1
// of every InstRetrievalRatio cached blocks. It matches
// longbench.LossyOneEighth, so the timing and accuracy models describe the
// same system point.
const InstRetrievalRatio = 8

// InstInferAccuracy scores a retrieval task under the engine's lossy 1/8
// top-k attention — the accuracy half of the speed/accuracy trade the
// engine's Run models the speed half of.
func InstInferAccuracy(t longbench.Task, seed int64) (float64, error) {
	return t.Score(seed, longbench.LossyOneEighth)
}

// InstInfer is the InstInfer-style in-storage attention system
// (PAPERS.md): attention runs inside computational SSDs like HILOS's ANS
// path, but the devices fetch only the top-scoring 1/8 of KV blocks
// (lossy top-k retrieval) instead of streaming the full cache. That makes
// it the cheap-but-approximate middle tier of a heterogeneous fleet — far
// less flash traffic than exact NSP attention, at an accuracy cost the
// longbench harness quantifies via the same 1/8 knob.
type InstInfer struct {
	// Devices is the computational-SSD count.
	Devices int
}

// Run simulates one decoding step plus prefill. The task graph mirrors the
// HILOS ANS path — per-layer QKV on the GPU, scatter over the uplink,
// attention behind the storage fabric, gather back — with two InstInfer
// twists: the in-storage pass first scans block-granular pooled keys
// (1/RetrievalBlockSize of the cache) to rank blocks, then reads only the
// kept 1/8 of KV; and new KV entries commit synchronously per step (no
// delayed writeback), paying sub-page write amplification.
func (e InstInfer) Run(tb device.Testbed, req pipeline.Request) pipeline.Report {
	devices := e.Devices
	rep := pipeline.Report{
		System: "InstInfer", Model: req.Model.Name, Context: req.Context, Devices: devices,
	}
	if err := req.Validate(); err != nil {
		rep.OOM, rep.Reason = true, err.Error()
		return rep
	}
	m := req.Model

	bs := pipeline.FitBatchStorage(m, req.Context, req.Batch, tb.SmartSSD.SSD.CapBytes, devices)
	if bs == 0 {
		rep.OOM, rep.Reason = true, "storage OOM: KV cache exceeds computational-SSD capacity at batch 1"
		return rep
	}
	rep.Batch = bs

	weightsOnSSD := pipeline.WeightsOnStorage(m)
	hid := float64(m.Hidden)
	kvDim := float64(m.KVHeads * m.HeadDim())
	kvLayerBytes := float64(bs) * float64(req.Context) * float64(m.KVBytesPerTokenLayer())
	newKVBytes := float64(bs) * float64(m.KVBytesPerTokenLayer())
	// Per-(batch, head) row appends of d elements: sub-page chunks.
	entryChunk := int64(m.HeadDim()) * model.BytesPerElem
	waf := tb.SmartSSD.SSD.WriteAmplification(entryChunk)

	e2 := sim.NewEngine()
	e2.RecordTimeline(!req.NoTrace)
	gpu := e2.Resource(pipeline.ResGPU, 1)
	gpuLink := e2.Resource(pipeline.ResGPULink, tb.Topo.GPULink.BW)
	uplink := e2.Resource(pipeline.ResUplink, tb.Topo.StorageUplink.BW)
	flash := e2.Resource(pipeline.ResStorRead, float64(devices)*tb.SmartSSD.InternalReadBW)
	// In-storage compute: the same accelerator cycle model as the NSP
	// devices (Fig. 12a rates), processing only the retrieved fraction.
	cm := accel.DefaultCycleModel(m.DGroup, m.HeadDim())
	kernel := e2.Resource(pipeline.ResNSP, float64(devices)*cm.KernelKVRate(req.Context))
	wbw := float64(devices) * tb.SmartSSD.SSD.WriteBW
	if tb.Topo.StorageUplink.BW < wbw {
		wbw = tb.Topo.StorageUplink.BW
	}
	storWrite := e2.Resource(pipeline.ResStorWrite, wbw)

	var prevMLP sim.Task
	var commits []sim.Task
	for l := 0; l < m.Layers; l++ {
		wABytes := float64(m.AttnWeightBytesPerLayer())
		wMBytes := float64(m.MLPActiveWeightBytesPerLayer(l))
		var wA, wM sim.Task
		if weightsOnSSD {
			sA := e2.Task(pipeline.LabelLoadWeight, uplink, wABytes)
			wA = e2.Task(pipeline.LabelLoadWeight, gpuLink, wABytes, sA)
			sM := e2.Task(pipeline.LabelLoadWeight, uplink, wMBytes)
			wM = e2.Task(pipeline.LabelLoadWeight, gpuLink, wMBytes, sM)
		} else {
			wA = e2.Task(pipeline.LabelLoadWeight, gpuLink, wABytes)
			wM = e2.Task(pipeline.LabelLoadWeight, gpuLink, wMBytes)
		}

		qkv := e2.Task(pipeline.LabelCompute, gpu,
			tb.GPU.ComputeTime(m.ProjFLOPsPerTokenLayer()*float64(bs), wABytes)+tb.OverheadPerLayer/2,
			wA, prevMLP)

		// Scatter the new q/k/v rows to the devices.
		scatterBytes := float64(bs) * (hid + 2*kvDim) * model.BytesPerElem
		scatter := e2.Task(pipeline.LabelLoadKV, uplink, scatterBytes, qkv)

		// New KV entries commit synchronously before attention may read
		// them (InstInfer has no delayed-writeback machinery).
		commit := e2.Task(pipeline.LabelStoreKV, storWrite, newKVBytes*waf, qkv)
		commits = append(commits, commit)

		// Retrieval scoring: scan the block-pooled key summaries — one
		// pooled row per RetrievalBlockSize tokens — then fetch only the
		// winning 1/8 of the cache through the in-storage pipeline.
		poolScan := e2.Task(pipeline.LabelLoadKV, flash,
			kvLayerBytes/float64(longbench.RetrievalBlockSize), scatter, commit)
		keptBytes := kvLayerBytes / InstRetrievalRatio
		flashKV := e2.Task(pipeline.LabelLoadKV, flash, keptBytes, poolScan)
		attn := e2.Task(pipeline.LabelLoadKV, kernel, keptBytes, poolScan)

		// Attention outputs return to the GPU for the MLP.
		gather := e2.Task(pipeline.LabelLoadKV, uplink,
			float64(bs)*hid*model.BytesPerElem, flashKV, attn)

		mlp := e2.Task(pipeline.LabelCompute, gpu,
			tb.GPU.ComputeTime(m.MLPFLOPsPerTokenLayer(l)*float64(bs), wMBytes)+tb.OverheadPerLayer/2,
			gather, wM)
		prevMLP = mlp
	}

	barrier := e2.Barrier("step", append([]sim.Task{prevMLP}, commits...)...)
	res := e2.Run()

	rep.StepSec = res.Finish(barrier)
	rep.Breakdown = res.ByLabel
	rep.ResourceBusy = res.ResourceBusy
	rep.Trace = res.Tasks
	rep.HostUtilCPU = res.ResourceBusy[pipeline.ResCPU] / rep.StepSec
	rep.HostUtilGPU = res.ResourceBusy[pipeline.ResGPU] / rep.StepSec
	rep.HostUtilDRAMCap = instDRAMUtil(tb, m)
	rep.DecodeWriteBytesPerStep = newKVBytes * waf * float64(m.Layers)

	// Prefill: FlashAttention on the GPU; the prompt KV streams to the
	// devices row-wise, page-aligned.
	pin := pipeline.PrefillInputs{WeightLoadBW: tb.Topo.GPULink.BW}
	if weightsOnSSD {
		pin.WeightSrcBW = tb.Topo.StorageUplink.BW
	}
	kvTotal := m.KVCacheBytes(bs, req.Context)
	pin.KVStoreBW = wbw
	pin.KVStoreBytes = kvTotal
	rep.PrefillSec = pipeline.Prefill(tb, m, bs, req.Context, pin)
	rep.PrefillWriteBytes = float64(kvTotal)
	return rep
}

func instDRAMUtil(tb device.Testbed, m model.Config) float64 {
	var used int64
	if !pipeline.WeightsOnStorage(m) {
		used = m.TotalWeightBytes()
	}
	u := float64(used) / float64(tb.DRAM.Bytes)
	if u > 1 {
		u = 1
	}
	return u
}
