// Package core implements the HILOS system (§4): attention near storage on
// SmartSSD-class NSP devices, cooperative X-cache execution between the GPU
// and the devices, and delayed KV-cache writeback. The engine builds a
// per-decoding-step task graph on the discrete-event substrate and returns
// the same report format as the baselines, enabling the paper's ablation
// (Fig. 15) via the Options toggles.
package core

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/device"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/writeback"
)

// Options configures a HILOS instance.
type Options struct {
	// Devices is the number of SmartSSDs (the paper evaluates 4, 8, 16;
	// default 8).
	Devices int
	// XCache enables cooperative X-cache execution (§4.2).
	XCache bool
	// DelayedWriteback enables the §4.3 writeback path; when false, new KV
	// entries commit synchronously before each attention (the naive
	// approach of Fig. 6a).
	DelayedWriteback bool
	// Alpha fixes the X-cache ratio; negative means "choose automatically"
	// via the §4.2 cost model. Ignored when XCache is false.
	Alpha float64
	// SpillInterval is the writeback spill interval c (default 16).
	SpillInterval int
	// CXL models the §7.3 architecture: CXL.mem provides a unified address
	// space between host and accelerator memory, eliminating the explicit
	// XRT DMA staging and spill orchestration of the PCIe platform. Only
	// the writeback-path overheads change; bandwidths stay as configured.
	CXL bool
}

// DefaultOptions returns the full HILOS configuration used in Fig. 10.
func DefaultOptions(devices int) Options {
	return Options{
		Devices:          devices,
		XCache:           true,
		DelayedWriteback: true,
		Alpha:            -1,
		SpillInterval:    16,
	}
}

// Name returns the figure label for this configuration.
func (o Options) Name() string {
	switch {
	case o.XCache && o.DelayedWriteback:
		return fmt.Sprintf("HILOS (%d SmartSSDs)", o.Devices)
	case o.XCache:
		return "ANS+X"
	case o.DelayedWriteback:
		return "ANS+WB"
	default:
		return "ANS"
	}
}

func (o Options) normalize() Options {
	if o.Devices <= 0 {
		o.Devices = 8
	}
	if o.SpillInterval <= 0 {
		o.SpillInterval = 16
	}
	if !o.XCache {
		o.Alpha = 0
	}
	return o
}

// ChooseAlpha runs the §4.2 cache scheduler for a concrete workload point.
func ChooseAlpha(tb device.Testbed, m model.Config, bs, ctx, devices int) (float64, error) {
	in := sched.Inputs{
		SX:     float64(bs) * float64(ctx) * float64(m.XBytesPerTokenLayer()),
		Rho:    m.KVToXRatio(),
		BPCI:   tb.Topo.GDSLink.BW,
		BSSD:   float64(devices) * tb.SmartSSD.InternalReadBW,
		CGPU:   tb.GPU.GEMMFLOPS,
		Hidden: m.Hidden,
	}
	return sched.Choose(in)
}

// Run simulates one request on HILOS and returns the report.
func Run(tb device.Testbed, req pipeline.Request, opt Options) pipeline.Report {
	opt = opt.normalize()
	rep := pipeline.Report{
		System: opt.Name(), Model: req.Model.Name, Context: req.Context, Devices: opt.Devices,
	}
	if err := req.Validate(); err != nil {
		rep.OOM, rep.Reason = true, err.Error()
		return rep
	}
	m := req.Model

	// α selection (before capacity fitting: α shapes the footprint).
	alpha := opt.Alpha
	if opt.XCache && alpha < 0 {
		a, err := ChooseAlpha(tb, m, req.Batch, req.Context, opt.Devices)
		if err != nil {
			rep.OOM, rep.Reason = true, err.Error()
			return rep
		}
		alpha = a
	}

	// Capacity fitting: weights (when storage-resident) plus the mixed
	// X/KV placement must fit the SmartSSD array.
	bs := req.Batch
	var plan kvcache.Placement
	for ; bs >= 1; bs-- {
		p, err := kvcache.Plan(m, bs, req.Context+req.OutputLen, opt.Devices, alpha)
		if err != nil {
			rep.OOM, rep.Reason = true, err.Error()
			return rep
		}
		var fixed int64
		if pipeline.WeightsOnStorage(m) {
			fixed = m.TotalWeightBytes()
		}
		if fixed+p.TotalBytes() <= tb.SmartSSD.SSD.CapBytes*int64(opt.Devices) {
			plan = p
			break
		}
	}
	if bs < 1 {
		rep.OOM, rep.Reason = true, "storage OOM: cache exceeds SmartSSD array capacity at batch 1"
		return rep
	}
	rep.Batch = bs

	step, bd, busy, writes, rec := decodeStep(tb, m, bs, req.Context, alpha, opt, !req.NoTrace)
	rep.StepSec = step
	rep.Breakdown = bd
	rep.ResourceBusy = busy
	rep.DecodeWriteBytesPerStep = writes
	rep.Trace = rec
	rep.HostUtilCPU = busy[pipeline.ResCPU] / step
	rep.HostUtilGPU = busy[pipeline.ResGPU] / step
	rep.HostUtilDRAMCap = hostDRAMUtil(tb, m, bs, opt)

	// Prefill: FlashAttention on the GPU; the prompt cache (α as X, 1−α as
	// KV) streams to the devices through the uplink in row-wise chunks.
	storeBytes := int64(float64(plan.KVBytesTotal)*float64(req.Context)/float64(req.Context+req.OutputLen)) +
		int64(float64(plan.XBytesTotal)*float64(req.Context)/float64(req.Context+req.OutputLen))
	storeBW := float64(opt.Devices) * tb.SmartSSD.SSD.WriteBW
	if tb.Topo.StorageUplink.BW < storeBW {
		storeBW = tb.Topo.StorageUplink.BW
	}
	pin := pipeline.PrefillInputs{
		WeightLoadBW: tb.Topo.GPULink.BW,
		KVStoreBW:    storeBW,
		KVStoreBytes: storeBytes,
	}
	if pipeline.WeightsOnStorage(m) {
		pin.WeightSrcBW = tb.Topo.StorageUplink.BW
	}
	rep.PrefillSec = pipeline.Prefill(tb, m, bs, req.Context, pin)
	rep.PrefillWriteBytes = float64(storeBytes)
	return rep
}

// decodeStep builds and schedules the steady-state decoding step graph.
// record=false skips timeline retention (Request.NoTrace).
func decodeStep(tb device.Testbed, m model.Config, bs, ctx int, alpha float64, opt Options, record bool) (
	stepSec float64, breakdown, busy map[string]float64, physWrites float64, records []sim.TaskRecord) {

	e := sim.NewEngine()
	e.RecordTimeline(record)
	gpu := e.Resource(pipeline.ResGPU, 1)
	cpu := e.Resource(pipeline.ResCPU, 1)
	gpuLink := e.Resource(pipeline.ResGPULink, tb.Topo.GPULink.BW)
	uplink := e.Resource(pipeline.ResUplink, tb.Topo.StorageUplink.BW)
	gds := e.Resource(pipeline.ResGDS, tb.Topo.GDSLink.BW)

	// The NSP storage path is three pipelined resources: the aggregate
	// flash internal bandwidth (serving both the (1−α) KV stream to the
	// accelerators and the α X stream to the GPU — the T_SSD term of §4.2),
	// the accelerator kernels (Fig. 12a rates, never the binder on
	// SmartSSDs), and the GDS path to GPU memory.
	cm := accel.DefaultCycleModel(m.DGroup, m.HeadDim())
	flash := e.Resource(pipeline.ResStorRead, float64(opt.Devices)*tb.SmartSSD.InternalReadBW)
	kernel := e.Resource(pipeline.ResNSP, float64(opt.Devices)*cm.KernelKVRate(ctx))
	// Host→device writes: bounded by the devices' host-visible write rate
	// and the shared uplink.
	wbw := float64(opt.Devices) * tb.SmartSSD.SSD.WriteBW
	if tb.Topo.StorageUplink.BW < wbw {
		wbw = tb.Topo.StorageUplink.BW
	}
	nspWrite := e.Resource(pipeline.ResStorWrite, wbw)

	weightsOnSSD := pipeline.WeightsOnStorage(m)
	hid := float64(m.Hidden)
	kvDim := float64(m.KVHeads * m.HeadDim())
	kvLayerBytes := float64(bs) * float64(ctx) * float64(m.KVBytesPerTokenLayer())
	xLayerBytes := float64(bs) * float64(ctx) * float64(m.XBytesPerTokenLayer())
	newKVBytes := float64(bs) * float64(m.KVBytesPerTokenLayer())
	newXBytes := float64(bs) * float64(m.XBytesPerTokenLayer())

	// Writeback accounting (per K or V row appends of d×2 bytes).
	wbCfg := writeback.Config{
		SpillInterval: opt.SpillInterval,
		Rows:          bs * m.KVHeads * m.Layers,
		EntryBytes:    2 * int64(m.HeadDim()) * model.BytesPerElem,
		PageBytes:     tb.SmartSSD.SSD.PageBytes,
	}

	var prevMLP sim.Task
	var commits []sim.Task
	for l := 0; l < m.Layers; l++ {
		wABytes := float64(m.AttnWeightBytesPerLayer())
		wMBytes := float64(m.MLPActiveWeightBytesPerLayer(l))
		var wA, wM sim.Task
		if weightsOnSSD {
			sA := e.Task(pipeline.LabelLoadWeight, uplink, wABytes)
			wA = e.Task(pipeline.LabelLoadWeight, gpuLink, wABytes, sA)
			sM := e.Task(pipeline.LabelLoadWeight, uplink, wMBytes)
			wM = e.Task(pipeline.LabelLoadWeight, gpuLink, wMBytes, sM)
		} else {
			wA = e.Task(pipeline.LabelLoadWeight, gpuLink, wABytes)
			wM = e.Task(pipeline.LabelLoadWeight, gpuLink, wMBytes)
		}

		qkv := e.Task(pipeline.LabelCompute, gpu,
			tb.GPU.ComputeTime(m.ProjFLOPsPerTokenLayer()*float64(bs), wABytes)+tb.OverheadPerLayer/2,
			wA, prevMLP)

		// Host-side writeback orchestration on the per-layer dispatch loop
		// (§7.3): XRT DMA staging and spill/commit issue serialize with the
		// layer's kernel launches, for every α.
		var dispatchCost float64
		switch {
		case opt.DelayedWriteback && opt.CXL:
			// §7.3: CXL.mem's unified address space removes the explicit
			// staging copies and per-op DMA issue; only a small coherence
			// cost per layer remains.
			dispatchCost = 50e-6
		case opt.DelayedWriteback:
			c := float64(opt.SpillInterval)
			avgBuffered := c / 2
			// Buffered V rows and QKᵀ scalars re-staged into FPGA DRAM
			// every step until spilled (§4.3): small XRT DMAs.
			staged := (1 - alpha) * float64(bs) * avgBuffered *
				(kvDim + float64(m.Heads)) * model.BytesPerElem
			// Amortized spill issue cost: one XRT write op per (batch,
			// KV-head) row per device queue, every c steps.
			rowsPerDev := (1 - alpha) * float64(bs*m.KVHeads) / float64(opt.Devices)
			dispatchCost = staged/tb.XRTStagingBW + rowsPerDev*tb.XRTOpLat/c
		case (1 - alpha) > 0:
			// Naive Fig. 6a path: one synchronous sub-page write per
			// (batch, KV-head) row for K and V before attention may run.
			opsPerDev := (1 - alpha) * float64(2*bs*m.KVHeads) / float64(opt.Devices)
			dispatchCost = opsPerDev * tb.SyncWriteLat
		}
		disp := e.Delay(pipeline.LabelStoreKV, dispatchCost, qkv)

		// Scatter the new q/k/v (and, with writeback, the precomputed
		// partial QKᵀ scalars plus the buffered V entries) to the devices.
		scatterBytes := (1 - alpha) * float64(bs) * (hid + 2*kvDim) * model.BytesPerElem
		scatter := e.Task(pipeline.LabelLoadKV, uplink, scatterBytes, disp)

		// Without delayed writeback the committed bytes also occupy the
		// write path with full sub-page amplification.
		ansDeps := []sim.Task{scatter}
		if !opt.DelayedWriteback && (1-alpha) > 0 {
			phys := (1 - alpha) * newKVBytes * wbCfg.NaiveWAF()
			commit := e.Task(pipeline.LabelStoreKV, nspWrite, phys, disp)
			ansDeps = append(ansDeps, commit)
			commits = append(commits, commit)
		}

		// Host CPU precompute of buffered-token partial scores (§4.3).
		var cpuPartial sim.Task
		if opt.DelayedWriteback {
			flops := (1 - alpha) * float64(bs*m.Heads) * float64(opt.SpillInterval) * 2 * float64(m.HeadDim())
			cpuPartial = e.Task(pipeline.LabelCompute, cpu, flops/tb.CPU.EffFLOPS, qkv)
		}

		// NSP attention: the KV stream flows flash→FPGA-DRAM→accelerator as
		// one pipeline; the two shadow tasks charge each resource its load
		// while the barrier takes the slower of the two.
		flashKV := e.Task(pipeline.LabelLoadKV, flash, (1-alpha)*kvLayerBytes, ansDeps...)
		ansC := e.Task(pipeline.LabelLoadKV, kernel, (1-alpha)*kvLayerBytes, ansDeps...)
		gather := e.Task(pipeline.LabelLoadKV, uplink, (1-alpha)*float64(bs)*hid*model.BytesPerElem, flashKV, ansC)

		// Cooperative X-cache: the α X stream reads the same flash, crosses
		// the GDS path, and is consumed chunk-pipelined by the GPU
		// regeneration+attention kernel (its latency "effectively hidden",
		// §4.2). All three run in parallel once the layer is dispatched.
		var xFlash, xGDS, xTask sim.Task
		if alpha > 0 {
			xFlash = e.Task(pipeline.LabelXCache, flash, alpha*xLayerBytes, disp)
			xGDS = e.Task(pipeline.LabelXCache, gds, alpha*xLayerBytes, disp)
			regenFLOPs := alpha * float64(bs) * float64(ctx) * 4 * hid * kvDim
			attnFLOPs := alpha * float64(bs) * m.AttnFLOPsPerTokenLayer(ctx)
			hbmBytes := alpha * float64(bs) * float64(ctx) * (hid + 2*kvDim) * model.BytesPerElem
			sec := regenFLOPs/tb.GPU.GEMMFLOPS + attnFLOPs/tb.GPU.EffFLOPS
			if mem := hbmBytes / tb.GPU.HBMBW; mem > sec {
				sec = mem
			}
			xTask = e.Task(pipeline.LabelXCache, gpu, sec, disp)
		}

		join := e.Barrier("attn-join", gather, xFlash, xGDS, xTask, cpuPartial)
		mlp := e.Task(pipeline.LabelCompute, gpu,
			tb.GPU.ComputeTime(m.MLPFLOPsPerTokenLayer(l)*float64(bs), wMBytes)+tb.OverheadPerLayer/2,
			join, wM)
		prevMLP = mlp
	}

	// Delayed writeback: amortized page-aligned spills off the critical path.
	if opt.DelayedWriteback {
		perStep := ((1-alpha)*newKVBytes + alpha*newXBytes) * float64(m.Layers) * wbCfg.SteadyStateWAF()
		e.Task(pipeline.LabelStoreKV, nspWrite, perStep)
		physWrites = perStep
	} else {
		physWrites = (1 - alpha) * newKVBytes * float64(m.Layers) * wbCfg.NaiveWAF()
		// α portion's new X entries still spill page-buffered.
		physWrites += alpha * newXBytes * float64(m.Layers)
	}

	barrier := e.Barrier("step", append([]sim.Task{prevMLP}, commits...)...)
	res := e.Run()
	return res.Finish(barrier), res.ByLabel, res.ResourceBusy, physWrites, res.Tasks
}

func hostDRAMUtil(tb device.Testbed, m model.Config, bs int, opt Options) float64 {
	var used int64
	if !pipeline.WeightsOnStorage(m) {
		used = m.TotalWeightBytes()
	}
	// Writeback buffers: c steps of KV entries.
	used += int64(opt.SpillInterval) * int64(bs) * m.KVBytesPerTokenLayer() * int64(m.Layers)
	u := float64(used) / float64(tb.DRAM.Bytes)
	if u > 1 {
		u = 1
	}
	return u
}
