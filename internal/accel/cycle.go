package accel

// CycleModel is the performance model of the pipelined dataflow. The four
// units of Figure 7 run as a task-level pipeline (the DATAFLOW pragma,
// §5.4), so the steady-state block time is the maximum of the per-unit
// block times; off-chip DRAM is the shared roofline.
//
// Default constants reproduce the paper's implementation (§5.4, §6.2):
// 296.05 MHz clock, 128 MAC lanes per query, exponential units with loop
// unrolling factor 2, 512-bit AXI bursts, DDR4-2400 (19.2 GB/s peak).
type CycleModel struct {
	ClockHz    float64 // accelerator clock
	MACLanes   int     // parallel MACs per query lane (128)
	ExpPerLane float64 // exponentials per cycle per query lane (unroll 2)
	DGroup     int     // query heads sharing the KV stream
	HeadDim    int     // per-head dimension d
	DRAMBW     float64 // off-chip DRAM peak bytes/s
	DRAMEff    float64 // achievable DRAM efficiency for the access pattern
	// OverheadCycles is the fixed per-block control overhead (kernel
	// dispatch, AXI burst setup); it lowers the storage-fetched kernel
	// rates of Fig. 12(a) below the pure pipeline rate of Table 3.
	OverheadCycles float64
}

// DefaultCycleModel returns the calibrated model for the KU15P SmartSSD
// implementation.
func DefaultCycleModel(dGroup, headDim int) CycleModel {
	return CycleModel{
		ClockHz:        296.05e6,
		MACLanes:       128,
		ExpPerLane:     2,
		DGroup:         dGroup,
		HeadDim:        headDim,
		DRAMBW:         19.2e9,
		DRAMEff:        0.62,
		OverheadCycles: 1200,
	}
}

// bytesPerCycle returns effective DRAM bytes moved per accelerator cycle.
func (m CycleModel) bytesPerCycle() float64 {
	return m.DRAMBW * m.DRAMEff / m.ClockHz
}

// KVBytesPerBlock returns the K+V bytes fetched from DRAM per 128-token
// block (shared across the d_group query lanes).
func (m CycleModel) KVBytesPerBlock() float64 {
	return float64(2*BlockTokens*float64(m.HeadDim)) * 2 // K and V, FP16
}

// blockDRAMBytes returns all DRAM traffic per block: the shared K+V stream
// plus the QKᵀ score spill/reload between the two softmax passes
// (d_group × 128 FP16 scores written then read).
func (m CycleModel) blockDRAMBytes() float64 {
	scores := float64(float64(m.DGroup)*BlockTokens) * 2
	return m.KVBytesPerBlock() + 2*scores
}

// blockFLOPs returns the arithmetic per block: QKᵀ and score·V MACs for each
// of the d_group queries plus the softmax exponential/normalization work.
func (m CycleModel) blockFLOPs() float64 {
	macs := float64(2 * float64(m.DGroup) * 2 * BlockTokens * float64(m.HeadDim)) // QK + SV, 2 FLOPs/MAC
	softmax := float64(5 * float64(m.DGroup) * BlockTokens)                       // exp, add, max, exp, div
	return macs + softmax
}

// UnitCycles returns the per-block cycle counts of each pipeline unit in
// steady state: DRAM movement, the two GEMV units, and the two softmax
// passes (exp-unit bound).
func (m CycleModel) UnitCycles() (mem, qk, softmax, sv float64) {
	mem = m.blockDRAMBytes() / m.bytesPerCycle()
	// GEMV: BlockTokens×HeadDim MACs per query, MACLanes per cycle, query
	// lanes in parallel (d_group × 128 MAC units, §4.4).
	qk = BlockTokens * float64(m.HeadDim) / float64(m.MACLanes)
	sv = qk
	// Softmax passes: 2 passes × 128 exponentials per query lane, each lane
	// has ExpPerLane exponential units.
	softmax = 2 * BlockTokens / m.ExpPerLane
	return mem, qk, softmax, sv
}

// BlockCycles returns the steady-state cycles per block (slowest pipeline
// stage) without per-block overhead.
func (m CycleModel) BlockCycles() float64 {
	mem, qk, sm, sv := m.UnitCycles()
	c := mem
	for _, v := range []float64{qk, sm, sv} {
		if v > c {
			c = v
		}
	}
	return c
}

// Blocks returns the number of 128-token blocks for sequence length s after
// AXI padding.
func Blocks(s int) int {
	return (PadSequence(s) + BlockTokens - 1) / BlockTokens
}

// blockCost returns the steady-state per-block cost including control
// overhead, which the published figures serialize after the compute.
func (m CycleModel) blockCost() float64 {
	return m.BlockCycles() + m.OverheadCycles
}

// KernelTime returns the time to run one attention pass (d_group queries
// over an s-token KV cache) including per-block overhead and pipeline fill.
func (m CycleModel) KernelTime(s int) float64 {
	if s <= 0 {
		return 0
	}
	nb := float64(Blocks(s))
	_, qk, sm, sv := m.UnitCycles()
	fill := qk + sm + sv // first block traverses all compute stages
	cycles := float64(nb*m.blockCost()) + fill
	return cycles / m.ClockHz
}

// SustainedGFLOPS is the steady-state pipeline arithmetic rate with data
// resident in FPGA DRAM and no dispatch overhead — the "Peak Perf." column
// of Table 3.
func (m CycleModel) SustainedGFLOPS() float64 {
	return m.blockFLOPs() / m.BlockCycles() * m.ClockHz / 1e9
}

// KernelKVRate returns the KV-cache consumption rate (bytes/s) of the kernel
// alone at sequence length s — the MHA/GQA series of Fig. 12(a).
func (m CycleModel) KernelKVRate(s int) float64 {
	t := m.KernelTime(s)
	if t == 0 {
		return 0
	}
	return float64(Blocks(s)) * m.KVBytesPerBlock() / t
}

// PipelinedRate returns the end-to-end KV consumption rate when KV data is
// fetched from flash at storageBW and double-buffered into the accelerator:
// the slower of the storage path and the kernel (§6.4: "all kernels deliver
// far more than 3.0 GB/s, well exceeding the SSD's P2P read bandwidth").
func (m CycleModel) PipelinedRate(s int, storageBW float64) float64 {
	kr := m.KernelKVRate(s)
	if storageBW < kr {
		return storageBW
	}
	return kr
}
