// Package engine defines the pluggable inference-engine abstraction the
// public API is built on: an Engine is one simulated inference system bound
// to a concrete hardware point, and a process-wide registry maps System
// identifiers to self-registering engine factories. Adding a backend (an
// InstInfer-style in-storage attention engine, a new baseline, a future CSD
// generation) is one file that calls Register from init — no switch in the
// facade to edit.
package engine

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/device"
	"repro/internal/pipeline"
)

// System identifies a simulated inference system ("flex-ssd", "hilos", ...).
type System string

// AlphaAuto selects the §4.2 cache scheduler's closed-form α at run time.
// Any negative Alpha in a Config means automatic selection.
const AlphaAuto = -1.0

// Engine is one inference system bound to a testbed and device
// configuration. Engines are immutable after construction and safe for
// concurrent use — the multi-pipeline backlog scheduler calls Run from
// several goroutines.
type Engine interface {
	// Name returns the registry identifier this engine resolves from.
	Name() System
	// Describe returns a one-line human-readable configuration summary.
	Describe() string
	// Run simulates one batched request and returns its report. Infeasible
	// configurations are reported in Report.OOM, never as a panic.
	Run(pipeline.Request) pipeline.Report
}

// Config is the hardware point an engine factory binds to. The zero value
// is not usable (the testbed must validate); New normalizes the remaining
// fields to the paper defaults.
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

// Factory constructs an Engine for a normalized, validated Config.
type Factory func(Config) (Engine, error)

// Spec describes one registrable system.
type Spec struct {
	// System is the registry identifier.
	System System
	// Rank orders Systems() output; the paper's Fig. 10 systems use ranks
	// 10-90. Rank 0 appends after all ranked systems in registration order.
	Rank int
	// Describe is the one-line summary reported by Engine.Describe.
	Describe string
	// New builds the engine.
	New Factory
}

var (
	mu       sync.RWMutex
	registry = map[System]Spec{} // guarded by mu
)

// Register adds a system to the registry. It panics on an empty identifier,
// a nil factory, or a duplicate registration — all programmer errors in an
// init function, mirroring database/sql.Register.
func Register(s Spec) {
	mu.Lock()
	defer mu.Unlock()
	if s.System == "" {
		panic("engine: Register with empty system identifier")
	}
	if s.New == nil {
		panic(fmt.Sprintf("engine: Register(%q) with nil factory", s.System))
	}
	if _, dup := registry[s.System]; dup {
		panic(fmt.Sprintf("engine: Register(%q) called twice", s.System))
	}
	if s.Rank == 0 {
		s.Rank = 1000 + len(registry)
	}
	registry[s.System] = s
}

// Lookup returns the registered spec for a system.
func Lookup(sys System) (Spec, bool) {
	mu.RLock()
	defer mu.RUnlock()
	s, ok := registry[sys]
	return s, ok
}

// New resolves a system through the registry and constructs its engine for
// the given configuration.
func New(sys System, cfg Config) (Engine, error) {
	spec, ok := Lookup(sys)
	if !ok {
		return nil, fmt.Errorf("engine: unknown system %q (known: %v)", sys, Systems())
	}
	cfg = cfg.normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return spec.New(cfg)
}

// Systems returns every registered identifier in rank order (ties break by
// name), so the paper's Fig. 10 ordering is stable regardless of package
// initialization order.
func Systems() []System {
	mu.RLock()
	specs := make([]Spec, 0, len(registry))
	for _, s := range registry {
		specs = append(specs, s)
	}
	mu.RUnlock()
	sort.Slice(specs, func(i, j int) bool {
		if specs[i].Rank != specs[j].Rank {
			return specs[i].Rank < specs[j].Rank
		}
		return specs[i].System < specs[j].System
	})
	out := make([]System, len(specs))
	for i, s := range specs {
		out[i] = s.System
	}
	return out
}
