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

	hid := float64(m.Hidden)
	kvDim := float64(m.KVHeads * m.HeadDim())
	kvLayerBytes := float64(bs) * float64(req.Context) * float64(m.KVBytesPerTokenLayer())
	newKVBytes := float64(bs) * float64(m.KVBytesPerTokenLayer())
	// Per-(batch, head) row appends of d elements: sub-page chunks.
	entryChunk := int64(m.HeadDim()) * model.BytesPerElem
	waf := tb.SmartSSD.SSD.WriteAmplification(entryChunk)

	st := pipeline.NewStep(tb, m, bs, tb.Topo.GPULink.BW, !req.NoTrace)
	e2 := st.E
	uplink := e2.Resource(pipeline.ResUplink, tb.Topo.StorageUplink.BW)
	st.Src = uplink
	flash := e2.Resource(pipeline.ResStorRead, float64(devices)*tb.SmartSSD.InternalReadBW)
	// In-storage compute: the same accelerator cycle model as the NSP
	// devices (Fig. 12a rates), processing only the retrieved fraction.
	cm := accel.DefaultCycleModel(m.DGroup, m.HeadDim())
	kernel := e2.Resource(pipeline.ResNSP, float64(devices)*cm.KernelKVRate(req.Context))
	storWrite := e2.Resource(pipeline.ResStorWrite, tb.NSPWriteBW(devices))

	var commits []sim.Task
	for l := 0; l < m.Layers; l++ {
		qkv := st.Begin(l)

		// Scatter the new q/k/v rows to the devices.
		scatterBytes := float64(float64(bs)*(hid+2*kvDim)) * model.BytesPerElem
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
		gather := e2.Task(pipeline.LabelLoadKV, uplink, float64(float64(bs)*hid)*model.BytesPerElem, flashKV, attn)
		st.End(l, gather)
	}
	st.Finish(&rep, commits...)
	rep.HostUtilDRAMCap = pipeline.HostDRAMShare(tb, m, 0)
	rep.DecodeWriteBytesPerStep = newKVBytes * waf * float64(m.Layers)

	// Prefill: FlashAttention on the GPU; the prompt KV streams to the
	// devices row-wise, page-aligned.
	kvTotal := m.KVCacheBytes(bs, req.Context)
	st.Prefill(&rep, tb.NSPWriteBW(devices), kvTotal)
	rep.PrefillWriteBytes = float64(kvTotal)
	return rep
}
