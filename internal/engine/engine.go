// Package engine binds the evaluated inference systems to hardware. An
// Engine is one simulated system on a concrete testbed and device count.
// The systems are one static table in the paper's Fig. 10 presentation
// order: the FlexGen, DeepSpeed and vLLM baselines, the lossy InstInfer
// tier (arXiv 2409.04992), then HILOS and its Fig. 15 ablation ladder.
package engine

import (
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/device"
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
// system's Describe counts ("" for fixed topologies); bind builds its step
// simulator for a normalized Config.
var systems = [...]struct {
	id      System
	desc    string
	devices string
	bind    func(Config) runFunc
}{
	{SysFlexSSD, "FlexGen-style offloading, KV cache on 4 PCIe 4.0 SSDs", "", flex(baseline.FlexSSD)},
	{SysFlexDRAM, "FlexGen-style offloading, KV cache in host DRAM", "", flex(baseline.FlexDRAM)},
	{SysFlex16SSD, "FlexGen on the 16-SmartSSD array with FPGAs disabled (shared uplink)", "", flex(baseline.Flex16SSD)},
	{SysDSUVM, "DeepSpeed ZeRO-Inference with unified virtual memory, KV in DRAM", "", flex(baseline.DeepSpeedUVM)},
	{SysVLLM, "multi-node vLLM: 2×4 RTX A6000, tensor parallel within a node, pipeline parallel across (Fig. 17b)", "",
		func(c Config) runFunc {
			v := baseline.DefaultVLLM()
			return func(req pipeline.Request) pipeline.Report { return v.Run(c.Testbed, req) }
		}},
	{SysInstInfer, "InstInfer-style in-storage attention, lossy top-1/8 KV retrieval", "computational SSDs",
		func(c Config) runFunc {
			m := baseline.InstInfer{Devices: c.Devices}
			return func(req pipeline.Request) pipeline.Report { return m.Run(c.Testbed, req) }
		}},
	{SysHILOS, "full HILOS: attention near storage + X-cache + delayed writeback (§4)", "SmartSSDs",
		hilos(core.Options{XCache: true, DelayedWriteback: true})},
	{SysHILOSANS, "ablation: attention near storage only (Fig. 15 ANS)", "SmartSSDs", hilos(core.Options{})},
	{SysHILOSWB, "ablation: ANS + delayed KV-cache writeback (Fig. 15 ANS+WB)", "SmartSSDs",
		hilos(core.Options{DelayedWriteback: true})},
	{SysHILOSX, "ablation: ANS + cooperative X-cache execution (Fig. 15 ANS+X)", "SmartSSDs",
		hilos(core.Options{XCache: true})},
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
	sys  System
	desc string
	run  runFunc
}

// Name returns the system identifier this engine was built for.
func (e Engine) Name() System { return e.sys }

// Describe returns a one-line human-readable configuration summary.
func (e Engine) Describe() string { return e.desc }

// Run simulates one batched request and returns its report. Infeasible
// configurations are reported in Report.OOM, never as a panic.
func (e Engine) Run(req pipeline.Request) pipeline.Report { return e.run(req) }

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

func (c Config) normalize() Config {
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
		cfg = cfg.normalize()
		if err := cfg.Validate(); err != nil {
			return Engine{}, err
		}
		desc := s.desc
		if s.devices != "" {
			desc = fmt.Sprintf("%s (%d %s)", desc, cfg.Devices, s.devices)
		}
		return Engine{sys: sys, desc: desc, run: s.bind(cfg)}, nil
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
