package hilos

import (
	"fmt"
	"math"

	"repro/internal/accel"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/longbench"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// Re-exported domain types. Aliases keep the public surface small while the
// implementation lives in internal packages.
type (
	// Request describes one offline-inference workload point.
	Request = pipeline.Request
	// Report is the simulated outcome for one system on one request.
	Report = pipeline.Report
	// Model is a transformer configuration (Table 2).
	Model = model.Config
	// Testbed is the hardware configuration (Table 1).
	Testbed = device.Testbed
	// System identifies a simulated inference system.
	System = engine.System
	// Engine is one inference system bound to a hardware configuration:
	// Name, Describe, and Run. Engines are built from the static system
	// table in internal/engine.
	Engine = engine.Engine
	// EnergyBreakdown is the per-token CPU/DRAM/GPU/SSD energy split of
	// Fig. 17(a), in joules.
	EnergyBreakdown = energy.Breakdown
	// ExperimentTable is one regenerated paper table/figure.
	ExperimentTable = experiments.Table
	// AccuracyTask is one synthetic long-context retrieval dataset.
	AccuracyTask = longbench.Task
)

// Models returns the Table 2 model zoo.
func Models() []Model { return model.All() }

// ModelByName looks up a Table 2 model ("OPT-66B", "Qwen2.5-32B", ...).
func ModelByName(name string) (Model, error) { return model.ByName(name) }

// DefaultTestbed returns the paper's Table 1 hardware configuration with
// all calibration constants documented at their definitions.
func DefaultTestbed() Testbed { return device.DefaultTestbed() }

// The systems evaluated in Figure 10 and Figure 17(b), re-exported from the
// engine table.
const (
	SystemFlexSSD    = engine.SysFlexSSD   // FlexGen, KV on 4 PCIe 4.0 SSDs
	SystemFlexDRAM   = engine.SysFlexDRAM  // FlexGen, KV in host DRAM
	SystemFlex16SSD  = engine.SysFlex16SSD // FlexGen on 16 SmartSSDs, FPGAs off
	SystemDSUVM      = engine.SysDSUVM     // DeepSpeed ZeRO-Inference + UVM
	SystemVLLM       = engine.SysVLLM      // 2-node 8×A6000 vLLM
	SystemHILOS      = engine.SysHILOS     // full HILOS (X-cache + writeback)
	SystemHILOSANS   = engine.SysHILOSANS  // ablation: attention near storage only
	SystemHILOSWB    = engine.SysHILOSWB   // ablation: ANS + delayed writeback
	SystemHILOSXOnly = engine.SysHILOSX    // ablation: ANS + X-cache
)

// AlphaAuto requests the §4.2 cache scheduler's closed-form X-cache ratio.
const AlphaAuto = engine.AlphaAuto

// Systems returns every system identifier, in the paper's Fig. 10
// presentation order.
func Systems() []System { return engine.Systems() }

// DescribeSystem returns a system's one-line summary, or "" for unknown
// systems.
func DescribeSystem(sys System) string { return engine.Describe(sys) }

// Simulator evaluates inference systems on a testbed. The zero value is not
// usable; construct with New.
type Simulator struct {
	tb        device.Testbed
	devices   int
	alpha     float64
	spill     int
	pipelines int
}

// Option configures a Simulator.
type Option func(*Simulator) error

// WithTestbed replaces the default Table 1 testbed.
func WithTestbed(tb Testbed) Option {
	return func(s *Simulator) error {
		if err := tb.Validate(); err != nil {
			return err
		}
		s.tb = tb
		return nil
	}
}

// WithDevices sets the SmartSSD count for NSP engines (default 8; the paper
// evaluates 4, 8 and 16). Baselines with fixed storage topologies ignore it.
func WithDevices(n int) Option {
	return func(s *Simulator) error {
		if n < 1 {
			return errorf("device count must be ≥ 1, got %d", n)
		}
		s.devices = n
		return nil
	}
}

// WithAlpha fixes the X-cache ratio α ∈ [0,1]; pass AlphaAuto (the default)
// to let the §4.2 cache scheduler choose per workload point.
func WithAlpha(a float64) Option {
	return func(s *Simulator) error {
		if a > 1 || math.IsNaN(a) {
			return errorf("α must be in [0,1] or AlphaAuto, got %g", a)
		}
		if a < 0 {
			a = AlphaAuto
		}
		s.alpha = a
		return nil
	}
}

// WithSpillInterval sets the delayed-writeback spill interval c (default 16).
func WithSpillInterval(c int) Option {
	return func(s *Simulator) error {
		if c < 1 {
			return errorf("spill interval must be ≥ 1, got %d", c)
		}
		s.spill = c
		return nil
	}
}

// WithPipelines sets how many independent inference pipelines Backlog
// schedules over (default 1). Each pipeline models one deployed host
// draining the shared backlog queue.
func WithPipelines(n int) Option {
	return func(s *Simulator) error {
		if n < 1 {
			return errorf("pipelines must be ≥ 1, got %d", n)
		}
		s.pipelines = n
		return nil
	}
}

// New constructs a simulator on the paper defaults (Table 1 testbed, 8
// SmartSSDs, automatic α, spill interval 16, one pipeline), then applies the
// options in order.
func New(opts ...Option) (*Simulator, error) {
	s := &Simulator{
		tb:        device.DefaultTestbed(),
		devices:   8,
		alpha:     AlphaAuto,
		spill:     16,
		pipelines: 1,
	}
	for _, o := range opts {
		if err := o(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Must is a New wrapper that panics on error, for initialization chains:
// hilos.Must(hilos.New(hilos.WithDevices(16))).
func Must(s *Simulator, err error) *Simulator {
	if err != nil {
		panic(err)
	}
	return s
}

// Testbed returns the simulator's hardware configuration.
func (s *Simulator) Testbed() Testbed { return s.tb }

// Engine builds a system's engine, bound to this simulator's testbed and
// options.
func (s *Simulator) Engine(sys System) (Engine, error) {
	return engine.New(sys, engine.Config{Testbed: s.tb, Devices: s.devices, Alpha: s.alpha, SpillInterval: s.spill})
}

// Simulate runs one system on a request. Infeasible configurations are
// reported via Report.OOM; the error covers unknown systems and invalid
// configurations only.
func (s *Simulator) Simulate(sys System, req Request) (Report, error) {
	eng, err := s.Engine(sys)
	if err != nil {
		return Report{}, err
	}
	return eng.Run(req), nil
}

// ChooseAlpha runs the §4.2 cache scheduler for a workload point.
func (s *Simulator) ChooseAlpha(m Model, batch, context, devices int) (float64, error) {
	return core.ChooseAlpha(s.tb, m, batch, context, devices)
}

// Energy integrates the Fig. 17(a) energy model over a report.
// smartSSDs > 0 selects the NSP storage power model with that device count;
// otherwise the four conventional SSDs are assumed.
func (s *Simulator) Energy(rep Report, smartSSDs int) (EnergyBreakdown, error) {
	cfg := energy.Config{Storage: energy.PlainSSDs, Devices: 4}
	if smartSSDs > 0 {
		cfg = energy.Config{Storage: energy.SmartSSDs, Devices: smartSSDs, AccelPowerW: s.tb.SmartSSD.AccelPowerW}
	}
	return energy.PerToken(s.tb, rep, cfg)
}

// ExperimentByID regenerates a single experiment ("fig10", "table3", ...).
func (s *Simulator) ExperimentByID(id string) (ExperimentTable, error) {
	g, err := experiments.ByID(id)
	if err != nil {
		return ExperimentTable{}, err
	}
	return g.Run(experiments.Runner{TB: s.tb}), nil
}

// ExperimentIDs lists the available experiment identifiers.
func ExperimentIDs() []string { return experiments.IDs() }

// AccuracySuite returns the Fig. 18(c) synthetic retrieval tasks.
func AccuracySuite() []AccuracyTask { return longbench.Suite() }

// RequestClass is a request shape (prompt and output lengths) from the
// §6.6 workload study.
type RequestClass = workload.Class

// RequestClasses returns the Short/Medium/Long classes of §6.6.
func RequestClasses() []RequestClass { return workload.Classes() }

// NewWorkloadTrace draws n requests from the Azure-like offline mix
// (60% short, 30% medium, 10% long), deterministically per seed.
func NewWorkloadTrace(seed int64, n int) ([]RequestClass, error) {
	g, err := workload.NewGenerator(seed, workload.AzureLikeMix())
	if err != nil {
		return nil, err
	}
	return g.Trace(n), nil
}

// AcceleratorTable3 returns the FPGA resource/performance model rows for
// the given head dimension (Table 3 uses 128).
func AcceleratorTable3(headDim int) ([]accel.Utilization, error) {
	return accel.Table3(headDim)
}

// Backlog drains a request trace through the selected system over the
// simulator's configured pipeline count (WithPipelines) — the
// offline-inference deployment model of the paper's introduction,
// generalized to several hosts sharing one backlog queue. It is the
// degenerate cluster trace: every request arrives at t=0 and queues by
// class, a batch closes as soon as batchSize same-class requests have
// arrived (in trace order), and each class's partial tail batch closes at
// the t=0 flush, in class order. Batches go to the earliest-idle of the
// identical pipelines. Per-pipeline, per-class and failed-work accounting
// are in the summary.
func (s *Simulator) Backlog(m Model, trace []RequestClass, batchSize int, sys System) (ClusterSummary, error) {
	eng, err := s.Engine(sys)
	if err != nil {
		return ClusterSummary{}, err
	}
	reqs := make([]TimedRequest, len(trace))
	for i, c := range trace {
		reqs[i] = TimedRequest{ID: i, Class: c}
	}
	// Every pipeline runs the same engine, so they share one memo group.
	fleet := make([]cluster.Pipeline, s.pipelines)
	for i := range fleet {
		fleet[i] = cluster.Pipeline{Name: fmt.Sprintf("pipeline-%d", i), Run: eng.Run, EngineID: string(sys)}
	}
	// A zero MaxWaitSec releases the partial tail batches at t=0 rather than
	// holding them back.
	return cluster.Run(cluster.Config{
		Model:     m,
		Fleet:     fleet,
		Policy:    cluster.LeastLoaded,
		Admission: cluster.Admission{MaxBatch: batchSize},
	}, reqs)
}

func errorf(format string, args ...any) error {
	return fmt.Errorf("hilos: "+format, args...)
}
