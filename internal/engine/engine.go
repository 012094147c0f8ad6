// Package engine defines the evaluated inference systems, each once. The
// systems are one static table in the paper's Fig. 10 presentation order:
// the FlexGen, DeepSpeed and vLLM baselines, the lossy InstInfer tier
// (arXiv 2409.04992), then HILOS and its Fig. 15 ablation ladder. A row
// holds everything the rest of the repository knows about a system: its
// step simulator, its hardware (one device.Hardware that both the §6.6
// price and the Fig. 17(a) energy model read) and whether its attention is
// lossy. An Engine is one row bound to a concrete testbed and device count;
// nothing outside this package chooses a price, an energy model or
// lossiness by system identifier.
package engine

import (
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/pipeline"
)

// System identifies a simulated inference system ("flex-ssd", "hilos", ...).
type System string

// The evaluated systems, in table order.
const (
	SysFlexSSD   System = "flex-ssd"
	SysFlexDRAM  System = "flex-dram"
	SysFlex16SSD System = "flex-16ssd"
	SysDSUVM     System = "ds-uvm"
	SysVLLM      System = "vllm"
	SysInstInfer System = "instinfer"
	SysHILOS     System = "hilos"
	SysHILOSANS  System = "hilos-ans"
	SysHILOSWB   System = "hilos-wb"
	SysHILOSX    System = "hilos-x"
)

// AlphaAuto selects the §4.2 cache scheduler's closed-form α at run time.
// Any negative Alpha in a Config means automatic selection.
const AlphaAuto = -1.0

// runFunc simulates one batched request on a bound hardware point.
type runFunc = func(pipeline.Request) pipeline.Report

// systems is every evaluated system. devices names the storage devices a
// system's Describe counts ("" for fixed topologies); hw describes the
// hardware that is priced and powered, and bind builds the step simulator,
// both for a normalized Config; lossy marks approximate attention.
var systems = [...]struct {
	id      System
	desc    string
	devices string
	lossy   bool
	hw      func(Config) device.Hardware
	bind    func(Config) runFunc
}{
	{id: SysFlexSSD, desc: "FlexGen-style offloading, KV cache on 4 PCIe 4.0 SSDs",
		hw: plainSSDHost, bind: flex(baseline.FlexSSD)},
	{id: SysFlexDRAM, desc: "FlexGen-style offloading, KV cache in host DRAM",
		hw: plainSSDHost, bind: flex(baseline.FlexDRAM)},
	{id: SysFlex16SSD, desc: "FlexGen on the 16-SmartSSD array with FPGAs disabled (shared uplink)",
		hw: fpgasOff, bind: flex(baseline.Flex16SSD)},
	{id: SysDSUVM, desc: "DeepSpeed ZeRO-Inference with unified virtual memory, KV in DRAM",
		hw: plainSSDHost, bind: flex(baseline.DeepSpeedUVM)},
	{id: SysVLLM, desc: "multi-node vLLM: 2×4 RTX A6000, tensor parallel within a node, pipeline parallel across (Fig. 17b)",
		hw: vllmNodes, bind: func(c Config) runFunc {
			v := baseline.DefaultVLLM()
			return func(req pipeline.Request) pipeline.Report { return v.Run(c.Testbed, req) }
		}},
	{id: SysInstInfer, desc: "InstInfer-style in-storage attention, lossy top-1/8 KV retrieval", devices: "computational SSDs",
		lossy: true, hw: nspHost, bind: func(c Config) runFunc {
			m := baseline.InstInfer{Devices: c.Devices}
			return func(req pipeline.Request) pipeline.Report { return m.Run(c.Testbed, req) }
		}},
	{id: SysHILOS, desc: "full HILOS: attention near storage + X-cache + delayed writeback (§4)", devices: "SmartSSDs",
		hw: nspHost, bind: hilos(core.Options{XCache: true, DelayedWriteback: true})},
	{id: SysHILOSANS, desc: "ablation: attention near storage only (Fig. 15 ANS)", devices: "SmartSSDs",
		hw: nspHost, bind: hilos(core.Options{})},
	{id: SysHILOSWB, desc: "ablation: ANS + delayed KV-cache writeback (Fig. 15 ANS+WB)", devices: "SmartSSDs",
		hw: nspHost, bind: hilos(core.Options{DelayedWriteback: true})},
	{id: SysHILOSX, desc: "ablation: ANS + cooperative X-cache execution (Fig. 15 ANS+X)", devices: "SmartSSDs",
		hw: nspHost, bind: hilos(core.Options{XCache: true})},
}

// plainSSDHost is the FlexGen server of §6.6: host, GPU, four PM9A3 SSDs.
func plainSSDHost(c Config) device.Hardware {
	return device.Hardware{Hosts: 1, GPU: c.Testbed.GPU, GPUs: 1, PlainSSDs: 4}
}

// nspHost adds the chassis and the Config's SmartSSDs, accelerators on.
func nspHost(c Config) device.Hardware {
	return device.Hardware{Hosts: 1, GPU: c.Testbed.GPU, GPUs: 1, SmartSSDs: c.Devices, Accels: true}
}

// fpgasOff is the 16-SmartSSD array with its accelerators unpowered.
func fpgasOff(c Config) device.Hardware {
	return device.Hardware{Hosts: 1, GPU: c.Testbed.GPU, GPUs: 1, SmartSSDs: 16}
}

// vllmNodes is the Fig. 17(b) deployment's hosts and GPUs, with no SSDs.
func vllmNodes(Config) device.Hardware {
	v := baseline.DefaultVLLM()
	return device.Hardware{Hosts: v.Nodes, GPU: v.GPU, GPUs: v.Nodes * v.GPUsPerNode}
}

func flex(variant func(device.Testbed) baseline.FlexVariant) func(Config) runFunc {
	return func(c Config) runFunc {
		v := variant(c.Testbed)
		return func(req pipeline.Request) pipeline.Report { return v.Run(c.Testbed, req) }
	}
}

// hilos binds a HILOS feature set to the Config's devices and α (core.Run
// ignores α without the X-cache). Only delayed writeback takes the spill
// interval: the other ablations keep core's default buffer depth.
func hilos(features core.Options) func(Config) runFunc {
	return func(c Config) runFunc {
		opt := features
		opt.Devices, opt.Alpha = c.Devices, c.Alpha
		if opt.DelayedWriteback {
			opt.SpillInterval = c.SpillInterval
		}
		return func(req pipeline.Request) pipeline.Report { return core.Run(c.Testbed, req, opt) }
	}
}

// Engine is one inference system bound to a testbed and device
// configuration. Engines are immutable after New and safe for concurrent
// use — the multi-pipeline backlog scheduler calls Run from several
// goroutines.
type Engine struct {
	sys   System
	desc  string
	run   runFunc
	lossy bool
	hw    device.Hardware
	tb    device.Testbed
}

// Name returns the system identifier this engine was built for.
func (e Engine) Name() System { return e.sys }

// Describe returns a one-line human-readable configuration summary.
func (e Engine) Describe() string { return e.desc }

// Run simulates one batched request and returns its report. Infeasible
// configurations are reported in Report.OOM, never as a panic.
func (e Engine) Run(req pipeline.Request) pipeline.Report { return e.run(req) }

// Lossy reports whether the system approximates attention (InstInfer's
// top-1/8 KV retrieval), so its outputs are not exact.
func (e Engine) Lossy() bool { return e.lossy }

// PriceUSD returns the §6.6 hardware price of the system on its testbed.
func (e Engine) PriceUSD() float64 { return e.hw.PriceUSD(e.tb) }

// Energy integrates the Fig. 17(a) energy model of the system's hardware
// over one report.
func (e Engine) Energy(rep pipeline.Report) (energy.Breakdown, error) {
	return energy.PerToken(e.tb, rep, e.hw)
}

// Config is the hardware point an engine binds to. The zero value is not
// usable (the testbed must validate); New normalizes the remaining fields
// to the paper defaults.
type Config struct {
	// Testbed is the Table 1 hardware description.
	Testbed device.Testbed
	// Devices is the SmartSSD count for NSP engines (≤0 = default 8).
	// Baselines with fixed storage topologies ignore it.
	Devices int
	// Alpha is the X-cache ratio in [0,1]; negative = automatic (§4.2).
	Alpha float64
	// SpillInterval is the delayed-writeback spill interval c (≤0 = 16).
	SpillInterval int
}

// Normalize fills the zero and automatic fields with the paper defaults, so
// two Configs that build the same engine compare equal.
func (c Config) Normalize() Config {
	if c.Devices <= 0 {
		c.Devices = 8
	}
	if c.SpillInterval <= 0 {
		c.SpillInterval = 16
	}
	if c.Alpha < 0 {
		c.Alpha = AlphaAuto
	}
	return c
}

// Validate reports unusable configurations.
func (c Config) Validate() error {
	if err := c.Testbed.Validate(); err != nil {
		return err
	}
	// NaN compares false against every bound, so it needs its own check.
	if c.Alpha > 1 || math.IsNaN(c.Alpha) {
		return fmt.Errorf("engine: X-cache ratio α must be in [0,1] or negative for automatic, got %g", c.Alpha)
	}
	return nil
}

// New constructs the engine of a system for the given configuration.
func New(sys System, cfg Config) (Engine, error) {
	for _, s := range systems {
		if s.id != sys {
			continue
		}
		cfg = cfg.Normalize()
		if err := cfg.Validate(); err != nil {
			return Engine{}, err
		}
		desc := s.desc
		if s.devices != "" {
			desc = fmt.Sprintf("%s (%d %s)", desc, cfg.Devices, s.devices)
		}
		return Engine{sys: sys, desc: desc, run: s.bind(cfg), lossy: s.lossy, hw: s.hw(cfg), tb: cfg.Testbed}, nil
	}
	return Engine{}, fmt.Errorf("engine: unknown system %q (known: %v)", sys, Systems())
}

// Systems returns every system identifier in the paper's Fig. 10
// presentation order.
func Systems() []System {
	out := make([]System, len(systems))
	for i, s := range systems {
		out[i] = s.id
	}
	return out
}

// Describe returns a system's one-line summary, or "" for unknown systems.
func Describe(sys System) string {
	for _, s := range systems {
		if s.id == sys {
			return s.desc
		}
	}
	return ""
}
