package baseline

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/pipeline"
)

// VLLMConfig describes the distributed multi-GPU deployment of Fig. 17(b):
// two nodes with four RTX A6000 each, tensor parallelism within a node and
// pipeline parallelism across nodes.
type VLLMConfig struct {
	Nodes       int
	GPUsPerNode int
	GPU         device.GPUSpec
}

// DefaultVLLM returns the paper's 2×4×A6000 configuration.
func DefaultVLLM() VLLMConfig {
	return VLLMConfig{Nodes: 2, GPUsPerNode: 4, GPU: device.A6000()}
}

// Name returns the display name used in figures.
func (c VLLMConfig) Name() string {
	return fmt.Sprintf("vLLM(%dx%s)", c.Nodes*c.GPUsPerNode, c.GPU.Name)
}

// Run evaluates the analytical vLLM model. Decode is memory-bound: every
// step streams the active weights and the resident KV through GDDR6; KV that
// does not fit GPU memory is swapped from host DRAM over PCIe (vLLM's paged
// swap), and pipeline parallelism adds an inter-node latency per layer
// boundary crossing.
func (c VLLMConfig) Run(tb device.Testbed, req pipeline.Request) pipeline.Report {
	rep := pipeline.Report{
		System: c.Name(), Model: req.Model.Name, Context: req.Context,
		Devices: 0,
	}
	if err := req.Validate(); err != nil {
		rep.OOM, rep.Reason = true, err.Error()
		return rep
	}
	m := req.Model
	nGPU := c.Nodes * c.GPUsPerNode
	totalMem := int64(float64(nGPU) * float64(c.GPU.MemBytes) * 0.95)
	weights := m.TotalWeightBytes()
	if weights > totalMem {
		rep.OOM, rep.Reason = true, "GPU OOM: weights exceed aggregate GPU memory"
		return rep
	}

	kvPerSeq := m.KVCacheBytes(1, req.Context)
	freeKV := totalMem - weights - m.ActivationBytes(req.Batch)
	bsResident := int(freeKV / kvPerSeq)
	if bsResident < 0 {
		bsResident = 0
	}
	swapBudget := int64(c.Nodes) * tb.SwapSpaceBytes
	bsSwapped := int(swapBudget / kvPerSeq)
	bs := bsResident + bsSwapped
	if bs > req.Batch {
		bs = req.Batch
	}
	if bs < 1 {
		rep.OOM, rep.Reason = true, "GPU OOM: no room for a single sequence's KV cache"
		return rep
	}
	if bsResident > bs {
		bsResident = bs
	}
	rep.Batch = bs

	aggHBM := float64(nGPU) * c.GPU.HBMBW * tb.TPEfficiency

	// Weight streaming through GDDR6 (every step touches active weights).
	tWeights := float64(m.ActiveWeightBytesPerStep()) / aggHBM
	// Resident KV read from GDDR6.
	tKVResident := float64(int64(bsResident)*kvPerSeq) / aggHBM
	// Swapped KV crosses PCIe from host DRAM.
	nSwapped := bs - bsResident
	tSwap := float64(int64(nSwapped)*kvPerSeq) / (float64(c.Nodes) * tb.SwapBW)
	// Pipeline-parallel inter-node latency: one boundary crossing per
	// microbatch, poorly amortized at the small batches this setup allows
	// (§6.6: "bottlenecked by small batches and inter-node communication").
	tComm := float64(tb.InterNodeLat * float64(m.Layers) / 4)

	rep.StepSec = tWeights + tKVResident + tSwap + tComm
	rep.Breakdown = map[string]float64{
		pipeline.LabelLoadWeight: tWeights,
		pipeline.LabelLoadKV:     tKVResident + tSwap,
		pipeline.LabelCompute:    tComm,
	}
	rep.ResourceBusy = map[string]float64{pipeline.ResGPU: rep.StepSec}
	rep.HostUtilGPU = 1

	// Prefill: compute-bound on the aggregate GPUs.
	rep.PrefillSec = m.PrefillFLOPs(bs, req.Context) /
		(float64(nGPU) * c.GPU.GEMMFLOPS * tb.TPEfficiency)
	return rep
}
