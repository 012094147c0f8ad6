// Package device models the hardware of the paper's testbed (Table 1):
// GPUs, the host CPU and DRAM, conventional NVMe SSDs, SmartSSD NSP devices,
// and the PCIe topology of Figure 3. Each spec carries the calibration
// constants (effective bandwidths, power draws) used by the timing engines;
// every constant cites its source in DefaultTestbed.
package device

import "fmt"

// GiB and friends express capacities.
const (
	KiB = int64(1) << 10
	MiB = int64(1) << 20
	GiB = int64(1) << 30
	TiB = int64(1) << 40
)

// GPUSpec models a GPU as a roofline: effective FP16 FLOP rate plus HBM
// bandwidth, with a memory capacity used for feasibility checks.
type GPUSpec struct {
	Name     string
	EffFLOPS float64 // effective FP16 FLOP/s for mixed decode kernels
	// GEMMFLOPS is the rate sustained on large dense GEMMs (the X-cache
	// K/V regeneration path), which reach far higher MFU than decode-step
	// kernels.
	GEMMFLOPS  float64
	HBMBW      float64 // bytes/s
	MemBytes   int64
	BusyPowerW float64
	IdlePowerW float64
	PriceUSD   float64
}

// ComputeTime returns the roofline time for an op with the given FLOPs and
// bytes moved through HBM.
func (g GPUSpec) ComputeTime(flops, bytes float64) float64 {
	t := flops / g.EffFLOPS
	if m := bytes / g.HBMBW; m > t {
		t = m
	}
	return t
}

// CPUSpec models the host CPU. Decode attention on the CPU is DRAM-bandwidth
// bound (the paper's baselines offload attention to the CPU during decoding).
type CPUSpec struct {
	Name       string
	EffFLOPS   float64 // effective FP32 FLOP/s for GEMV-like kernels
	BusyPowerW float64
	IdlePowerW float64
}

// DRAMSpec models host memory.
type DRAMSpec struct {
	Bytes  int64
	BW     float64 // bytes/s
	PowerW float64
}

// SSDSpec models an NVMe SSD with page-granular writes.
type SSDSpec struct {
	Name      string
	CapBytes  int64
	ReadBW    float64 // bytes/s sequential
	WriteBW   float64 // bytes/s sequential
	PageBytes int64   // NAND page size (write granularity)
	ReadLat   float64 // seconds, per-command latency
	WriteLat  float64 // seconds, per-command latency
	PowerW    float64
	PBW       float64 // endurance: petabytes written
	PriceUSD  float64
}

// WriteAmplification returns the physical/logical write ratio for chunks of
// the given size.
func (s SSDSpec) WriteAmplification(chunkBytes int64) float64 {
	if chunkBytes <= 0 || chunkBytes >= s.PageBytes {
		return 1
	}
	return float64(s.PageBytes) / float64(chunkBytes)
}

// SmartSSDSpec models a Samsung SmartSSD: an SSD plus an FPGA behind a
// private internal PCIe switch (Figure 18a). InternalReadBW/InternalWriteBW
// are the P2P flash↔FPGA-DRAM rates that never touch the host interconnect.
type SmartSSDSpec struct {
	SSD             SSDSpec
	InternalReadBW  float64 // bytes/s, flash → FPGA DRAM (P2P)
	InternalWriteBW float64 // bytes/s, FPGA DRAM → flash (P2P)
	FPGADRAMBW      float64 // bytes/s, FPGA off-chip DRAM
	FPGADRAMBytes   int64
	AccelPowerW     float64 // on-chip power at d_group=1 (Table 3); scaled by accel model
	PriceUSD        float64
}

// LinkSpec is a PCIe link or switch uplink with an effective bandwidth.
type LinkSpec struct {
	Name string
	BW   float64 // bytes/s effective (protocol overhead already applied)
}

// Topology captures the two storage attachments of Figure 3:
// conventional SSDs on dedicated root ports vs. NSP devices behind a shared
// expansion-chassis uplink.
type Topology struct {
	GPULink       LinkSpec // host ↔ GPU (PCIe 4.0 ×16)
	StorageUplink LinkSpec // host ↔ storage array aggregate (chassis uplink for NSP)
	PerDeviceLink LinkSpec // host ↔ one storage device
	// GDSLink is the effective GPUDirect Storage path from the NSP array to
	// GPU memory (X-cache reads, §4.2). GDS traverses the chassis switch and
	// the root complex, sustaining far less than raw PCIe: the paper's
	// B_SSD/B_PCI ≈ 3 at 8 SmartSSDs (25.6 GB/s) implies ≈ 8.5 GB/s.
	GDSLink LinkSpec
	// CXL models the §7.3 interconnect: CXL.mem gives host and accelerator
	// memory one address space, eliminating the explicit XRT DMA staging
	// and spill orchestration of the PCIe platform. Only the writeback-path
	// overheads change; link bandwidths stay as configured.
	CXL bool
}

// Testbed bundles the full hardware configuration of Table 1.
type Testbed struct {
	GPU        GPUSpec
	CPU        CPUSpec
	DRAM       DRAMSpec
	PlainSSD   SSDSpec      // SAMSUNG PM9A3
	SmartSSD   SmartSSDSpec // SAMSUNG SmartSSD
	Topo       Topology
	HostUSD    float64 // host server price
	ChassisUSD float64 // PCIe expansion chassis price

	// Calibration knobs (documented in DefaultTestbed).
	KVReadDerate     float64 // baseline KV reads pay a layout/transpose penalty
	BaselineOverlap  float64 // fraction of KV I/O the baseline overlaps with compute
	UVMDerate        float64 // UVM paging efficiency for DS+UVM baseline
	InterNodeLat     float64 // seconds per pipeline stage hop (vLLM multi-node)
	TPEfficiency     float64 // tensor-parallel scaling efficiency per node
	CPUAttnBW        float64 // effective KV bytes/s of CPU decode attention
	DRAMUsableFrac   float64 // fraction of host DRAM usable for weights+KV
	SwapBW           float64 // effective host↔GPU KV swap bandwidth (vLLM)
	SwapSpaceBytes   int64   // KV swap budget per node (vLLM)
	OverheadPerLayer float64 // framework dispatch overhead per layer per step

	// XRT / writeback path constants (§4.3, §7.3).
	XRTOpLat     float64 // host-side latency per XRT DMA/write operation
	XRTStagingBW float64 // effective BW of small host→FPGA-DRAM staging DMAs
	SyncWriteLat float64 // latency of one synchronous sub-page SSD write
}

// Hardware is one system's hardware: what the §6.6 cost analysis bills and
// the Fig. 17(a) energy model powers. Unit prices and powers come from a
// Testbed; Hardware only counts.
type Hardware struct {
	Hosts     int     // host servers, each with the Testbed's CPU and DRAM
	GPU       GPUSpec // the model of every GPU
	GPUs      int     // GPU count across all hosts
	PlainSSDs int     // conventional PCIe 4.0 SSDs
	SmartSSDs int     // NSP devices (implies the PCIe expansion chassis)
	Accels    bool    // the SmartSSDs' accelerators draw power
}

// PriceUSD returns the hardware's total price on a testbed.
func (h Hardware) PriceUSD(tb Testbed) float64 {
	// float64(...) rounds each product on its own, so no architecture fuses
	// it into the sum (the figure tables must match bit for bit).
	p := float64(float64(h.Hosts) * tb.HostUSD)
	p += float64(float64(h.GPUs) * h.GPU.PriceUSD)
	p += float64(float64(h.PlainSSDs) * tb.PlainSSD.PriceUSD)
	if h.SmartSSDs > 0 {
		p += tb.ChassisUSD + float64(float64(h.SmartSSDs)*tb.SmartSSD.PriceUSD)
	}
	return p
}

// A100 is the default evaluation GPU.
func A100() GPUSpec {
	return GPUSpec{
		Name:       "A100-40GB",
		EffFLOPS:   140e12, // 312 TFLOPS peak FP16 × ~0.45 achievable MFU
		GEMMFLOPS:  270e12, // large dense GEMMs sustain ~85% MFU
		HBMBW:      1.40e12,
		MemBytes:   40 * GiB,
		BusyPowerW: 250, IdlePowerW: 60,
		PriceUSD: 7000, // §6.6 cost analysis
	}
}

// H100 is the upgraded GPU used in the cost study (§6.6).
func H100() GPUSpec {
	return GPUSpec{
		Name:       "H100-80GB",
		EffFLOPS:   330e12,
		GEMMFLOPS:  640e12,
		HBMBW:      1.90e12,
		MemBytes:   80 * GiB,
		BusyPowerW: 350, IdlePowerW: 70,
		PriceUSD: 30000,
	}
}

// A6000 is the GPU of the multi-node vLLM baseline (§6.6, Fig. 17b).
func A6000() GPUSpec {
	return GPUSpec{
		Name:       "RTX-A6000-48GB",
		EffFLOPS:   60e12,
		GEMMFLOPS:  120e12,
		HBMBW:      0.70e12, // GDDR6 768 GB/s peak
		MemBytes:   48 * GiB,
		BusyPowerW: 300, IdlePowerW: 30,
		PriceUSD: 4500,
	}
}

// DefaultTestbed returns the Table 1 configuration. Constants and their
// provenance:
//
//   - PM9A3: 6.9 GB/s read, 4.1 GB/s write (paper §6.1), 4 KiB page,
//     13 W datasheet power, 7.008 PBW endurance (§6.6), $400 (§6.6).
//   - SmartSSD: PCIe 3.0 ×4 internal P2P ≈ 3.2 GB/s effective read
//     (Fig. 12a shows kernels exceeding the ~3.2 GB/s SSD P2P read rate),
//     2.0 GB/s P2P write, 4 GB DDR4-2400 at 19.2 GB/s, $2,400 (§6.6).
//   - GPU link: PCIe 4.0 ×16, 25 GB/s effective of 32 GB/s raw.
//   - Storage uplink: the H3 Falcon chassis shares one ×16 uplink across
//     all 16 SmartSSDs; 20 GB/s effective. This reproduces the paper's
//     observation that FLEX(16 PCIe 3.0 SSDs) reaches only 0.64–0.94× of
//     FLEX(4 PCIe 4.0 SSDs): 20 GB/s uplink vs 27.6 GB/s dedicated ports.
//   - Host: 16×32 GB DDR4-3200 (512 GB) at ≈200 GB/s, $15,000 server,
//     $10,000 chassis (§6.6).
//   - KVReadDerate 0.55: FlexGen's CPU attention reads K in transposed
//     order, paying random-access and layout-conversion penalties on top of
//     sequential bandwidth (§4.4 "layout conflict"; Fig. 4b).
//   - BaselineOverlap 0.35: FlexGen overlaps prefetch with compute only
//     across adjacent layers; most KV I/O sits on the critical path
//     (Fig. 2b shows >60% of time in KV transfers).
//   - UVMDerate 0.22: DS+UVM pays page-fault round trips; the paper reports
//     >4× slowdown vs FLEX(DRAM).
//   - GPU link 16 GB/s: the framework-effective host→device copy rate
//     (staging through pageable buffers), not raw PCIe 4.0 ×16.
//   - CPUAttnBW 22 GB/s: effective KV consumption of CPU decode attention
//     (Fig. 4c shows the baseline near-saturating the CPU, i.e. it is
//     compute/threading bound well below the 200 GB/s DRAM stream rate).
//   - DRAMUsableFrac 0.65: pinned I/O buffers, weight double-buffers and
//     fragmentation shrink the DRAM available for weights+KV.
//   - SwapBW/SwapSpaceBytes: vLLM's paged-KV host swap path (Fig. 17b).
//   - OverheadPerLayer 1 ms: per-layer framework dispatch on the GPU.
func DefaultTestbed() Testbed {
	pm9a3 := SSDSpec{
		Name:     "PM9A3-3.84TB",
		CapBytes: 3840 * 1000 * 1000 * 1000,
		ReadBW:   6.9e9, WriteBW: 4.1e9,
		PageBytes: 4 * KiB,
		ReadLat:   80e-6, WriteLat: 30e-6,
		PowerW: 13, PBW: 7.008, PriceUSD: 400,
	}
	smartSSDBase := SSDSpec{
		Name:     "SmartSSD-3.84TB",
		CapBytes: 3840 * 1000 * 1000 * 1000,
		ReadBW:   3.2e9, WriteBW: 2.0e9, // host-visible PCIe 3.0 ×4
		PageBytes: 4 * KiB,
		ReadLat:   90e-6, WriteLat: 35e-6,
		PowerW: 10, PBW: 7.008, PriceUSD: 2400,
	}
	return Testbed{
		GPU:      A100(),
		CPU:      CPUSpec{Name: "Xeon-Gold-6342", EffFLOPS: 1.2e12, BusyPowerW: 230, IdlePowerW: 105},
		DRAM:     DRAMSpec{Bytes: 512 * GiB, BW: 200e9, PowerW: 40},
		PlainSSD: pm9a3,
		SmartSSD: SmartSSDSpec{
			SSD:             smartSSDBase,
			InternalReadBW:  3.4e9,
			InternalWriteBW: 2.0e9,
			FPGADRAMBW:      19.2e9,
			FPGADRAMBytes:   4 * GiB,
			AccelPowerW:     11.25, // Table 3, d_group = 1
			PriceUSD:        2400,
		},
		Topo: Topology{
			GPULink:       LinkSpec{Name: "pcie4x16-gpu", BW: 16e9},
			StorageUplink: LinkSpec{Name: "chassis-uplink", BW: 20e9},
			PerDeviceLink: LinkSpec{Name: "pcie4x4", BW: 7.0e9},
			GDSLink:       LinkSpec{Name: "gds-path", BW: 8.5e9},
		},
		HostUSD: 15000, ChassisUSD: 10000,
		KVReadDerate:     0.55,
		BaselineOverlap:  0.35,
		UVMDerate:        0.22,
		InterNodeLat:     1.2e-3,
		TPEfficiency:     0.78,
		CPUAttnBW:        22e9,
		DRAMUsableFrac:   0.65,
		SwapBW:           12e9,
		SwapSpaceBytes:   332 * GiB,
		OverheadPerLayer: 1.0e-3,
		// §7.3: "Physical memory isolation in PCIe-based environments
		// necessitates explicit DMA orchestration via XRT... reducing
		// throughput by over 30% when scaling c from 4 KiB (c=16) to
		// 16 KiB (c=64)". Per-op XRT latency penalizes frequent small
		// spills (low c); the staging bandwidth of small host→FPGA DMAs
		// penalizes large buffered transfers (high c). Together they give
		// Fig. 13's optimum at c=16.
		XRTOpLat:     4e-3,
		XRTStagingBW: 0.04e9,
		// Synchronous sub-page writes (naive Fig. 6a path): NVMe write +
		// FTL read-modify-write + sync round trip.
		SyncWriteLat: 1e-3,
	}
}

// NSPWriteBW returns the host→device write bandwidth of the given number of
// SmartSSDs: their host-visible write rate, capped by the shared uplink.
func (t Testbed) NSPWriteBW(devices int) float64 {
	return min(float64(devices)*t.SmartSSD.SSD.WriteBW, t.Topo.StorageUplink.BW)
}

// Validate checks a testbed for physically meaningless values.
func (t Testbed) Validate() error {
	checks := []struct {
		ok  bool
		msg string
	}{
		{t.GPU.EffFLOPS > 0 && t.GPU.HBMBW > 0, "GPU rates must be positive"},
		{t.CPU.EffFLOPS > 0, "CPU rate must be positive"},
		{t.DRAM.Bytes > 0 && t.DRAM.BW > 0, "DRAM must be positive"},
		{t.PlainSSD.ReadBW > 0 && t.PlainSSD.WriteBW > 0, "SSD rates must be positive"},
		{t.SmartSSD.InternalReadBW > 0, "SmartSSD internal BW must be positive"},
		{t.Topo.GPULink.BW > 0 && t.Topo.StorageUplink.BW > 0, "links must be positive"},
		{t.KVReadDerate > 0 && t.KVReadDerate <= 1, "KVReadDerate must be in (0,1]"},
		{t.BaselineOverlap >= 0 && t.BaselineOverlap < 1, "BaselineOverlap must be in [0,1)"},
		{t.UVMDerate > 0 && t.UVMDerate <= 1, "UVMDerate must be in (0,1]"},
	}
	for _, c := range checks {
		if !c.ok {
			return fmt.Errorf("device: %s", c.msg)
		}
	}
	return nil
}
