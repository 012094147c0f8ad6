// Package baseline implements the comparison systems of §6.1: FlexGen-style
// offloading-based batched inference with the KV cache in host DRAM or on
// SSDs (including the 16-SmartSSD-with-FPGA-disabled configuration),
// DeepSpeed ZeRO-Inference with UVM, and the multi-node vLLM deployment of
// Fig. 17(b). All engines share the discrete-event substrate of
// internal/sim and the report format of internal/pipeline.
package baseline

import (
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// KVHome says where a FlexGen variant keeps the KV cache.
type KVHome int

// KV cache placements.
const (
	KVInDRAM KVHome = iota
	KVOnSSD
)

// FlexVariant selects one of the FlexGen-style baselines.
type FlexVariant struct {
	Name   string
	KV     KVHome
	SSD    device.SSDSpec
	NumSSD int
	// SharedUplink caps the aggregate storage bandwidth at the chassis
	// uplink (the FLEX(16 PCIe 3.0 SSDs) configuration of Fig. 10).
	SharedUplink bool
	// UVM derates the host↔GPU link by Testbed.UVMDerate (DS+UVM(DRAM)).
	UVM bool
}

// FlexSSD returns FLEX(SSD): four PM9A3 on dedicated PCIe 4.0 ×4 ports.
func FlexSSD(tb device.Testbed) FlexVariant {
	return FlexVariant{Name: "FLEX(SSD)", KV: KVOnSSD, SSD: tb.PlainSSD, NumSSD: 4}
}

// FlexDRAM returns FLEX(DRAM): KV cache in host memory.
func FlexDRAM(tb device.Testbed) FlexVariant {
	return FlexVariant{Name: "FLEX(DRAM)", KV: KVInDRAM, SSD: tb.PlainSSD, NumSSD: 4}
}

// Flex16SSD returns FLEX(16 PCIe 3.0 SSDs): the SmartSSD array with FPGAs
// disabled, all KV traffic crossing the shared chassis uplink.
func Flex16SSD(tb device.Testbed) FlexVariant {
	return FlexVariant{Name: "FLEX(16 PCIe 3.0 SSDs)", KV: KVOnSSD, SSD: tb.SmartSSD.SSD, NumSSD: 16, SharedUplink: true}
}

// DeepSpeedUVM returns DS+UVM(DRAM): ZeRO-Inference extended with unified
// virtual memory for intermediate activations (§6.1).
func DeepSpeedUVM(tb device.Testbed) FlexVariant {
	return FlexVariant{Name: "DS+UVM(DRAM)", KV: KVInDRAM, SSD: tb.PlainSSD, NumSSD: 4, UVM: true}
}

// aggregateRead returns the variant's aggregate storage read bandwidth.
func (v FlexVariant) aggregateRead(tb device.Testbed) float64 {
	bw := float64(v.NumSSD) * v.SSD.ReadBW
	if v.SharedUplink && tb.Topo.StorageUplink.BW < bw {
		bw = tb.Topo.StorageUplink.BW
	}
	return bw
}

func (v FlexVariant) aggregateWrite(tb device.Testbed) float64 {
	bw := float64(v.NumSSD) * v.SSD.WriteBW
	if v.SharedUplink && tb.Topo.StorageUplink.BW < bw {
		bw = tb.Topo.StorageUplink.BW
	}
	return bw
}

// Run simulates one request on this variant and returns the report.
func (v FlexVariant) Run(tb device.Testbed, req pipeline.Request) pipeline.Report {
	rep := pipeline.Report{
		System: v.Name, Model: req.Model.Name, Context: req.Context, Devices: v.NumSSD,
	}
	if err := req.Validate(); err != nil {
		rep.OOM, rep.Reason = true, err.Error()
		return rep
	}
	m := req.Model

	// Capacity fitting.
	var bs int
	switch v.KV {
	case KVInDRAM:
		bs = pipeline.FitBatchDRAM(tb, m, req.Context, req.Batch)
		if bs == 0 {
			rep.OOM, rep.Reason = true, "CPU OOM: KV cache exceeds host DRAM at batch 1"
			return rep
		}
	case KVOnSSD:
		bs = pipeline.FitBatchStorage(m, req.Context, req.Batch, v.SSD.CapBytes, v.NumSSD)
		if bs == 0 {
			rep.OOM, rep.Reason = true, "storage OOM: KV cache exceeds SSD capacity at batch 1"
			return rep
		}
	}
	rep.Batch = bs

	linkBW := tb.Topo.GPULink.BW
	if v.UVM {
		linkBW *= tb.UVMDerate
	}

	// --- Decode step task graph ---
	st := pipeline.NewStep(tb, m, bs, linkBW, !req.NoTrace)
	e := st.E
	cpu := e.Resource(pipeline.ResCPU, 1)
	storRead := e.Resource(pipeline.ResStorRead, v.aggregateRead(tb))
	st.Src = storRead
	storWrite := e.Resource(pipeline.ResStorWrite, v.aggregateWrite(tb))

	kvLayerBytes := float64(bs) * float64(req.Context) * float64(m.KVBytesPerTokenLayer())
	newKVBytes := float64(bs) * float64(m.KVBytesPerTokenLayer())
	// FlexGen appends per-(batch, head) rows of d elements: sub-page chunks.
	entryChunk := int64(m.HeadDim()) * model.BytesPerElem
	waf := v.SSD.WriteAmplification(entryChunk)

	var prevAttn sim.Task
	var kvWrites []sim.Task
	for l := 0; l < m.Layers; l++ {
		// Weight loads are prefetched; resource order pipelines them.
		qkv := st.Begin(l)

		// KV path.
		var attn sim.Task
		attnSec := kvLayerBytes / tb.CPUAttnBW
		if v.KV == KVOnSSD {
			demand := kvLayerBytes / tb.KVReadDerate
			// The prefetchable fraction streams ahead; the rest is the
			// layer-synchronous portion FlexGen reads on demand.
			kvPre := e.Task(pipeline.LabelLoadKV, storRead, demand*tb.BaselineOverlap)
			kvSync := e.Task(pipeline.LabelLoadKV, storRead, demand*(1-tb.BaselineOverlap), prevAttn)
			attn = e.Task(pipeline.LabelCompute, cpu, attnSec, kvPre, kvSync, qkv)
		} else {
			attn = e.Task(pipeline.LabelCompute, cpu, attnSec, qkv)
		}
		prevAttn = attn

		// Attention output returns to the GPU for the MLP.
		aout := e.Task(pipeline.LabelCompute, st.Link, float64(float64(bs)*float64(m.Hidden))*model.BytesPerElem, attn)
		st.End(l, aout)

		// New KV entries commit to their home before the next step.
		if v.KV == KVOnSSD {
			kvWrites = append(kvWrites,
				e.Task(pipeline.LabelStoreKV, storWrite, newKVBytes*waf, qkv))
		}
	}
	st.Finish(&rep, kvWrites...)

	// The prefill writes the prompt KV to its home. On SSDs it goes
	// row-wise, page-aligned, and host DRAM holds only the working buffers
	// of in-flight KV layers.
	kvTotal := m.KVCacheBytes(bs, req.Context)
	if v.KV == KVOnSSD {
		rep.DecodeWriteBytesPerStep = newKVBytes * waf * float64(m.Layers)
		st.Prefill(&rep, v.aggregateWrite(tb), kvTotal)
		rep.PrefillWriteBytes = float64(kvTotal)
		rep.HostUtilDRAMCap = pipeline.HostDRAMShare(tb, m, 2*int64(kvLayerBytes))
	} else {
		st.Prefill(&rep, tb.DRAM.BW, kvTotal)
		rep.HostUtilDRAMCap = pipeline.HostDRAMShare(tb, m, kvTotal)
	}
	return rep
}
