package hilos

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Cluster-facing re-exports.
type (
	// TimedRequest is one timestamped inference request — the unit the
	// cluster admission layer drains.
	TimedRequest = workload.TimedRequest
	// ClusterSummary reports a cluster evaluation: makespan, queueing-delay
	// percentiles, rejected/failed work, and per-pipeline cost/energy
	// attribution.
	ClusterSummary = cluster.Summary
	// ClusterPipelineStats attributes work to one fleet member.
	ClusterPipelineStats = cluster.PipelineStats
	// ClusterPriorityStats attributes scheduling outcomes (delay
	// percentiles, preempted jobs, deadline misses) to one priority class.
	ClusterPriorityStats = cluster.PriorityStats
	// DispatchPolicy selects how batches pick pipelines.
	DispatchPolicy = cluster.Policy
)

// The dispatch policies of the cluster scheduler.
const (
	// DispatchLeastLoaded sends each batch to the earliest-available
	// pipeline — the classic list schedule, and the policy Backlog uses.
	DispatchLeastLoaded = cluster.LeastLoaded
	// DispatchCheapestFeasible sends each batch to the feasible pipeline
	// with the lowest amortized dollar cost for it (internal/cost pricing).
	DispatchCheapestFeasible = cluster.CheapestFeasible
	// DispatchFastestETA sends each batch to the pipeline that completes it
	// earliest, counting queueing.
	DispatchFastestETA = cluster.FastestETA
)

// DispatchPolicies lists the policies in documentation order.
func DispatchPolicies() []DispatchPolicy { return cluster.Policies() }

// SystemInstInfer is the InstInfer-style in-storage attention engine with
// lossy top-1/8 KV retrieval — the approximate middle tier between the
// exact NSP systems and the DRAM baselines.
const SystemInstInfer = engine.SysInstInfer

// amortHours spreads a system's hardware price over a three-year service
// life, the horizon of the §6.6 cost-effectiveness analysis.
const amortHours = 3 * 365 * 24

// clusterConfig collects ClusterOption state.
type clusterConfig struct {
	fleet      []fleetSpec
	policy     DispatchPolicy
	maxBatch   int
	maxWaitSec float64
	maxBacklog int
	preemption bool
	continuous bool
	priorities []PriorityClass
	telemetry  *ClusterTelemetry
	pace       func(simSec float64)
	faults     *FaultPlan
	retry      *ClusterRetryPolicy
}

type fleetSpec struct {
	sys     System
	count   int
	devices int
}

// ClusterOption configures Cluster.
type ClusterOption func(*clusterConfig) error

// WithFleet appends count pipelines backed by the given system to the
// fleet; devices is the SmartSSD/computational-SSD count for NSP engines
// (≤0 = the default 8; baselines with fixed topologies ignore it).
// Repeat the option to compose heterogeneous fleets, e.g. two HILOS hosts
// plus a DRAM baseline plus an InstInfer tier.
func WithFleet(sys System, count, devices int) ClusterOption {
	return func(c *clusterConfig) error {
		if count < 1 {
			return errorf("fleet count for %s must be ≥ 1, got %d", sys, count)
		}
		c.fleet = append(c.fleet, fleetSpec{sys: sys, count: count, devices: devices})
		return nil
	}
}

// WithDispatchPolicy selects the batch-to-pipeline policy (default
// DispatchLeastLoaded).
func WithDispatchPolicy(p DispatchPolicy) ClusterOption {
	return func(c *clusterConfig) error {
		c.policy = p
		return nil
	}
}

// WithAdmission sets the batch-formation policy: a per-class batch closes
// at maxBatch requests or when its oldest member has waited maxWaitSec,
// whichever comes first (defaults: 16 and 60 s).
func WithAdmission(maxBatch int, maxWaitSec float64) ClusterOption {
	return func(c *clusterConfig) error {
		if maxBatch < 1 {
			return errorf("admission max batch must be ≥ 1, got %d", maxBatch)
		}
		if maxWaitSec < 0 {
			return errorf("admission max wait must be ≥ 0, got %g", maxWaitSec)
		}
		c.maxBatch, c.maxWaitSec = maxBatch, maxWaitSec
		return nil
	}
}

// WithMaxBacklog caps admitted-but-unstarted requests; arrivals beyond the
// cap are rejected (default 0 = unbounded, pure offline admission).
func WithMaxBacklog(n int) ClusterOption {
	return func(c *clusterConfig) error {
		if n < 0 {
			return errorf("max backlog must be ≥ 0, got %d", n)
		}
		c.maxBacklog = n
		return nil
	}
}

// PriorityClass tags every request of one workload class with scheduling
// urgency: Priority ranks it against other classes (higher is served first;
// 0 is the offline default) and DeadlineSec is its queueing budget — the
// request should start within DeadlineSec of arrival (0 = no deadline).
type PriorityClass struct {
	// Class names the workload class the rule applies to (e.g. "Short").
	Class string
	// Priority is the scheduling rank (≥ 0; higher is more urgent).
	Priority int
	// DeadlineSec is the start-deadline budget in seconds (≥ 0; 0 = none).
	DeadlineSec float64
}

// WithPriorityClasses stamps matching requests of the trace with priority
// and deadline metadata before scheduling — the declarative way to split
// one trace into online and offline tiers (e.g. Short as priority 1 with a
// 15-second deadline, everything else the offline default). Rules override
// any metadata the requests already carry.
func WithPriorityClasses(rules ...PriorityClass) ClusterOption {
	return func(c *clusterConfig) error {
		if len(rules) == 0 {
			return errorf("priority classes need at least one rule")
		}
		for _, r := range rules {
			if r.Class == "" {
				return errorf("priority class rule needs a class name")
			}
			if r.Priority < 0 {
				return errorf("priority for class %s must be ≥ 0, got %d", r.Class, r.Priority)
			}
			if !(r.DeadlineSec >= 0) || math.IsInf(r.DeadlineSec, 1) {
				return errorf("deadline for class %s must be finite and ≥ 0, got %g", r.Class, r.DeadlineSec)
			}
		}
		c.priorities = append(c.priorities, rules...)
		return nil
	}
}

// WithPreemption enables deadline-aware preemption: a request's deadline
// forces its partial batch out when it expires, and a batch that would
// still miss its deadline evicts strictly-lower-priority unstarted batches
// from the pipeline where it can start soonest. Evicted work is re-enqueued
// and re-run, never dropped, and the backlog cap stops rejecting arrivals
// that outrank the queued work. Running batches always complete: preemption
// acts only at batch boundaries. Combined with WithContinuousBatching
// there is never an unstarted batch to evict — work waits in its queue
// until a pipeline is free — so preemption reduces to deadline-triggered
// dispatch eligibility and the priority ordering of the queues, and the
// summary's preemption counters stay zero.
func WithPreemption() ClusterOption {
	return func(c *clusterConfig) error {
		c.preemption = true
		return nil
	}
}

// WithContinuousBatching re-forms batches at dispatch time: requests wait
// in per-priority queues until a pipeline is actually free, and the freed
// pipeline re-packs up to the admission batch size from the oldest waiting
// work — continuous batching, instead of shipping the batch that happened
// to close at admission.
func WithContinuousBatching() ClusterOption {
	return func(c *clusterConfig) error {
		c.continuous = true
		return nil
	}
}

// WithClusterTelemetry streams per-event metrics out of the scheduling
// loop into the given sink (see NewClusterTelemetry). Telemetry never
// feeds back into scheduling: the Summary is bit-identical with or without
// it, and a nil sink is a no-op.
func WithClusterTelemetry(t *ClusterTelemetry) ClusterOption {
	return func(c *clusterConfig) error {
		c.telemetry = t
		return nil
	}
}

// WithClusterPace installs a pacing hook called with the simulated time of
// each scheduler event before it executes — the boundary where a replay is
// slaved to the wall clock (e.g. sleeping until sim time × replay speed has
// elapsed). The hook must not mutate scheduling state; results are
// independent of how long it blocks.
func WithClusterPace(pace func(simSec float64)) ClusterOption {
	return func(c *clusterConfig) error {
		c.pace = pace
		return nil
	}
}

// Cluster drains a timestamped request trace through a heterogeneous fleet:
// the trace-driven generalization of Backlog. Requests are admitted into
// per-class queues, packed into batches under the admission policy, and
// dispatched to fleet pipelines — each backed by its own engine,
// priced by the §6.6 hardware model amortized over three years — under the
// selected policy. The default fleet is two 8-device HILOS hosts plus one
// FlexGen-DRAM baseline; results are deterministic for a given trace and
// configuration.
func Cluster(m Model, reqs []TimedRequest, opts ...ClusterOption) (ClusterSummary, error) {
	cfg := clusterConfig{
		policy:     DispatchLeastLoaded,
		maxBatch:   16,
		maxWaitSec: 60,
	}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return ClusterSummary{}, err
		}
	}
	if len(cfg.fleet) == 0 {
		cfg.fleet = []fleetSpec{
			{sys: SystemHILOS, count: 2, devices: 8},
			{sys: SystemFlexDRAM, count: 1},
		}
	}

	tb := device.DefaultTestbed()
	var fleet []cluster.Pipeline
	for _, fs := range cfg.fleet {
		devices := fs.devices
		if devices <= 0 {
			devices = 8
		}
		eng, err := engine.New(fs.sys, engine.Config{
			Testbed: tb, Devices: devices, Alpha: AlphaAuto, SpillInterval: 16,
		})
		if err != nil {
			return ClusterSummary{}, err
		}
		usdPerHour, ec := pipelineEconomics(fs.sys, devices, tb)
		for i := 0; i < fs.count; i++ {
			fleet = append(fleet, cluster.Pipeline{
				Name:       fmt.Sprintf("%s/%d", fs.sys, len(fleet)),
				Run:        eng.Run,
				USDPerHour: usdPerHour,
				Energy:     ec,
				// Pipelines from one fleet spec share the engine, so their
				// batch simulations memoize together.
				EngineID: fmt.Sprintf("%s/%d-dev", fs.sys, devices),
				// InstInfer's top-1/8 KV retrieval is approximate: work that
				// lands here only because every exact tier is out of service
				// counts as degraded, not business as usual.
				Lossy: fs.sys == SystemInstInfer,
			})
		}
	}

	var inj *faults.Injector
	if cfg.faults != nil {
		var err error
		if inj, err = faults.New(*cfg.faults, len(fleet)); err != nil {
			return ClusterSummary{}, err
		}
	}
	var retry cluster.RetryPolicy
	switch {
	case cfg.retry != nil:
		retry = *cfg.retry
	case cfg.faults != nil:
		retry = cluster.DefaultRetryPolicy()
	}

	if len(cfg.priorities) > 0 {
		stamped := make([]TimedRequest, len(reqs))
		copy(stamped, reqs)
		rules := map[string]PriorityClass{}
		for _, r := range cfg.priorities {
			rules[r.Class] = r
		}
		for i := range stamped {
			if r, ok := rules[stamped[i].Class.Name]; ok {
				stamped[i].Priority = r.Priority
				stamped[i].DeadlineSec = r.DeadlineSec
			}
		}
		reqs = stamped
	}

	return cluster.Run(cluster.Config{
		Model:     m,
		Fleet:     fleet,
		Policy:    cfg.policy,
		Telemetry: cfg.telemetry,
		Pace:      cfg.pace,
		Faults:    inj,
		Retry:     retry,
		Admission: cluster.Admission{
			MaxBatch:           cfg.maxBatch,
			MaxWaitSec:         cfg.maxWaitSec,
			MaxBacklog:         cfg.maxBacklog,
			Preemption:         cfg.preemption,
			ContinuousBatching: cfg.continuous,
		},
	}, reqs)
}

// pipelineEconomics prices one pipeline's hardware via the §6.6 bill of
// materials, amortized to $/hour, and selects its Fig. 17(a) energy model.
func pipelineEconomics(sys System, devices int, tb Testbed) (float64, *cluster.EnergyConfig) {
	var cs cost.System
	ec := energy.Config{Storage: energy.PlainSSDs, Devices: 4}
	switch {
	case strings.HasPrefix(string(sys), "hilos") || sys == SystemInstInfer:
		// NSP tiers: host + GPU + chassis + computational SSDs.
		cs = cost.HILOSSystem(tb.GPU, devices)
		ec = energy.Config{Storage: energy.SmartSSDs, Devices: devices, AccelPowerW: tb.SmartSSD.AccelPowerW}
	case sys == SystemFlex16SSD:
		// The SmartSSD array with FPGAs off: chassis + 16 devices, SSD-only
		// power.
		cs = cost.System{Name: string(sys), GPU: tb.GPU, SmartSSDs: 16, Hosts: 1}
		ec = energy.Config{Storage: energy.SmartSSDs, Devices: 16}
	case sys == SystemVLLM:
		// Two 4-GPU nodes, no offload storage.
		cs = cost.System{Name: string(sys), GPU: tb.GPU, Hosts: 2, ExtraGPUs: 7}
		ec = energy.Config{Storage: energy.NoSSD, GPUCount: 8}
	default:
		// FlexGen-style single host with four plain SSDs.
		cs = cost.FlexSystem(tb.GPU)
	}
	return cs.PriceUSD(tb) / amortHours, &cluster.EnergyConfig{Testbed: tb, Model: ec}
}

// ArrivalProcess names a built-in arrival-time generator.
type ArrivalProcess string

// The built-in arrival processes.
const (
	// ArrivalsPoisson is a homogeneous Poisson process: exponential
	// inter-arrival gaps at the mean rate.
	ArrivalsPoisson ArrivalProcess = "poisson"
	// ArrivalsUniform is deterministic 1/rate spacing — the zero-variance
	// reference.
	ArrivalsUniform ArrivalProcess = "uniform"
	// ArrivalsBursty is a two-state MMPP: 80% of the time a quiet floor at
	// rate/4, 20% in bursts at 4×rate, time-averaging to the requested
	// rate — the day-night modulation of the ROADMAP's workload-realism
	// item.
	ArrivalsBursty ArrivalProcess = "bursty"
)

// ArrivalProcesses lists the built-in processes in documentation order.
func ArrivalProcesses() []ArrivalProcess {
	return []ArrivalProcess{ArrivalsPoisson, ArrivalsUniform, ArrivalsBursty}
}

// NewTimedWorkloadTrace draws n requests from the Azure-like offline mix
// and stamps them with Poisson arrivals at ratePerSec — deterministic per
// seed. The one-call path from nothing to a Cluster-ready trace.
func NewTimedWorkloadTrace(seed int64, n int, ratePerSec float64) ([]TimedRequest, error) {
	return NewWorkloadTraceWithArrivals(seed, n, ratePerSec, ArrivalsPoisson)
}

// NewWorkloadTraceWithArrivals draws n requests from the Azure-like offline
// mix and stamps them with arrivals from the selected process at the given
// mean rate — deterministic per seed.
func NewWorkloadTraceWithArrivals(seed int64, n int, ratePerSec float64, p ArrivalProcess) ([]TimedRequest, error) {
	g, err := workload.NewGenerator(seed, workload.AzureLikeMix())
	if err != nil {
		return nil, err
	}
	arrivals, err := arrivalTimes(seed, n, ratePerSec, p)
	if err != nil {
		return nil, err
	}
	return g.TimedTrace(arrivals)
}

func arrivalTimes(seed int64, n int, ratePerSec float64, p ArrivalProcess) ([]float64, error) {
	switch p {
	case ArrivalsPoisson:
		return workload.PoissonArrivals(seed, ratePerSec, n)
	case ArrivalsUniform:
		return workload.UniformArrivals(ratePerSec, n)
	case ArrivalsBursty:
		return workload.BurstyArrivals(seed, ratePerSec, n)
	}
	return nil, errorf("unknown arrival process %q (known: %v)", p, ArrivalProcesses())
}

// NewOnlineOfflineTrace builds the co-scheduling workload of the
// online/offline studies: nOffline offline requests (the Azure-like mix's
// Medium/Long tail, priority 0, no deadline) arriving as a Poisson process
// at offlineRate, interleaved with nOnline latency-sensitive Short requests
// (priority 1, the given start-deadline budget) at onlineRate. IDs are
// reassigned in arrival order; the result is deterministic per seed.
func NewOnlineOfflineTrace(seed int64, nOnline, nOffline int, onlineRate, offlineRate, deadlineSec float64) ([]TimedRequest, error) {
	if !(deadlineSec >= 0) || math.IsInf(deadlineSec, 1) {
		return nil, errorf("online deadline must be finite and ≥ 0, got %g", deadlineSec)
	}
	offMix := []workload.Mix{{Class: workload.Medium, Weight: 0.75}, {Class: workload.Long, Weight: 0.25}}
	g, err := workload.NewGenerator(seed, offMix)
	if err != nil {
		return nil, err
	}
	offArr, err := workload.PoissonArrivals(seed, offlineRate, nOffline)
	if err != nil {
		return nil, err
	}
	offline, err := g.TimedTrace(offArr)
	if err != nil {
		return nil, err
	}
	onArr, err := workload.PoissonArrivals(seed+1, onlineRate, nOnline)
	if err != nil {
		return nil, err
	}
	merged := make([]TimedRequest, 0, nOnline+nOffline)
	merged = append(merged, offline...)
	for _, t := range onArr {
		merged = append(merged, TimedRequest{
			Class: workload.Short, ArrivalSec: t, Priority: 1, DeadlineSec: deadlineSec,
		})
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].ArrivalSec < merged[j].ArrivalSec })
	for i := range merged {
		merged[i].ID = i
	}
	return merged, nil
}

// ReadArrivalTrace parses an arrival-trace CSV (arrival_sec,class or
// arrival_sec,class,input_tokens,output_tokens; optional header) into
// timestamped requests.
func ReadArrivalTrace(r io.Reader) ([]TimedRequest, error) {
	return trace.ReadArrivalsCSV(r)
}

// WriteArrivalTrace writes requests as an arrival-trace CSV that
// round-trips through ReadArrivalTrace.
func WriteArrivalTrace(w io.Writer, reqs []TimedRequest) error {
	return trace.WriteArrivalsCSV(w, reqs)
}
