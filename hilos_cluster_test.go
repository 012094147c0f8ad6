package hilos

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/device"
	"repro/internal/energy"
)

// Acceptance: a mixed fleet (two distinct engine systems plus the InstInfer
// tier) drains a timestamped trace deterministically, reporting makespan,
// delay percentiles and per-pipeline cost/energy attribution — and
// least-loaded vs cheapest-feasible produce different assignments.
func TestClusterMixedFleet(t *testing.T) {
	m, err := ModelByName("OPT-30B")
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := NewTimedWorkloadTrace(7, 48, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	fleet := []ClusterOption{
		WithFleet(SystemHILOS, 2, 8),
		WithFleet(SystemFlexDRAM, 1, 0),
		WithFleet(SystemInstInfer, 1, 8),
		WithAdmission(8, 30),
	}

	run := func(p DispatchPolicy) ClusterSummary {
		s, err := Cluster(m, reqs, append(fleet, WithDispatchPolicy(p))...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ll := run(DispatchLeastLoaded)
	if ll.Completed == 0 || ll.MakespanSec <= 0 {
		t.Fatalf("degenerate summary %+v", ll)
	}
	if len(ll.Pipelines) != 4 {
		t.Fatalf("fleet size %d, want 4", len(ll.Pipelines))
	}
	if ll.DelayP50Sec > ll.DelayP95Sec || ll.DelayP95Sec > ll.DelayP99Sec {
		t.Errorf("delay percentiles not monotone: %v/%v/%v", ll.DelayP50Sec, ll.DelayP95Sec, ll.DelayP99Sec)
	}
	if ll.TotalCostUSD <= 0 || ll.TotalEnergyJ <= 0 {
		t.Errorf("missing attribution: cost %v, energy %v", ll.TotalCostUSD, ll.TotalEnergyJ)
	}

	// Determinism across repeated facade calls.
	again := run(DispatchLeastLoaded)
	if !reflect.DeepEqual(ll, again) {
		t.Fatal("repeated cluster runs differ")
	}

	// Cost-aware dispatch must route differently from load balancing on
	// this fleet (the cheap DRAM baseline attracts short batches).
	cf := run(DispatchCheapestFeasible)
	same := true
	for i := range ll.Assignments {
		if ll.Assignments[i].Pipeline != cf.Assignments[i].Pipeline {
			same = false
			break
		}
	}
	if same {
		t.Error("least-loaded and cheapest-feasible produced identical assignments")
	}
	if cf.TotalCostUSD >= ll.TotalCostUSD {
		t.Errorf("cheapest-feasible cost $%.4f not below least-loaded $%.4f",
			cf.TotalCostUSD, ll.TotalCostUSD)
	}
	if cf.OutputTokens != ll.OutputTokens {
		t.Errorf("policies completed different work: %d vs %d tokens", cf.OutputTokens, ll.OutputTokens)
	}
}

func TestClusterDefaultsAndErrors(t *testing.T) {
	m, _ := ModelByName("OPT-30B")
	reqs, err := NewTimedWorkloadTrace(3, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Default fleet: 2× HILOS + 1 DRAM baseline.
	s, err := Cluster(m, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Pipelines) != 3 {
		t.Errorf("default fleet size %d, want 3", len(s.Pipelines))
	}
	if _, err := Cluster(m, reqs, WithFleet("no-such-system", 1, 0)); err == nil {
		t.Error("unknown system accepted")
	}
	if _, err := Cluster(m, reqs, WithFleet(SystemHILOS, 0, 8)); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := Cluster(m, reqs, WithAdmission(0, 1)); err == nil {
		t.Error("zero batch accepted")
	}
	if _, err := Cluster(m, reqs, WithAdmission(1, -1)); err == nil {
		t.Error("negative wait accepted")
	}
	if _, err := Cluster(m, reqs, WithMaxBacklog(-1)); err == nil {
		t.Error("negative backlog accepted")
	}
	if _, err := Cluster(m, reqs, WithDispatchPolicy("vibes")); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := Cluster(m, nil); err == nil {
		t.Error("empty trace accepted")
	}
}

// Acceptance: with preemption enabled on a mixed online/offline trace, the
// online priority class's p99 queueing delay is strictly lower than under
// the FIFO baseline at equal fleet and policy; offline work is displaced,
// not dropped, and its slowdown stays bounded.
func TestClusterPreemptionBeatsFIFOForOnlineClass(t *testing.T) {
	m, err := ModelByName("OPT-30B")
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := NewOnlineOfflineTrace(21, 24, 40, 0.4, 0.5, 120)
	if err != nil {
		t.Fatal(err)
	}
	fleet := []ClusterOption{
		WithFleet(SystemHILOS, 2, 8),
		WithFleet(SystemFlexDRAM, 1, 0),
		WithAdmission(8, 90),
		WithDispatchPolicy(DispatchLeastLoaded),
	}
	fifo, err := Cluster(m, reqs, fleet...)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := Cluster(m, reqs, append(fleet, WithPreemption())...)
	if err != nil {
		t.Fatal(err)
	}

	onFIFO, ok := fifo.PriorityByClass(1)
	if !ok {
		t.Fatalf("FIFO run lost the online class: %+v", fifo.PerPriority)
	}
	onPre, ok := pre.PriorityByClass(1)
	if !ok {
		t.Fatalf("preemptive run lost the online class: %+v", pre.PerPriority)
	}
	if onPre.DelayP99Sec >= onFIFO.DelayP99Sec {
		t.Errorf("online p99 %.1fs under preemption not strictly below FIFO %.1fs",
			onPre.DelayP99Sec, onFIFO.DelayP99Sec)
	}
	if onPre.DeadlineMisses > onFIFO.DeadlineMisses {
		t.Errorf("preemption increased online deadline misses: %d vs %d",
			onPre.DeadlineMisses, onFIFO.DeadlineMisses)
	}

	// Offline degradation is bounded: every offline job still completes
	// (displaced, never dropped) and the total makespan stays within 2× of
	// the FIFO schedule's.
	offFIFO, _ := fifo.PriorityByClass(0)
	offPre, _ := pre.PriorityByClass(0)
	if offPre.Completed != offFIFO.Completed {
		t.Errorf("preemption lost offline work: %d completed vs %d", offPre.Completed, offFIFO.Completed)
	}
	if pre.OutputTokens != fifo.OutputTokens {
		t.Errorf("token totals differ: %d vs %d", pre.OutputTokens, fifo.OutputTokens)
	}
	if pre.MakespanSec > 2*fifo.MakespanSec {
		t.Errorf("offline slowdown unbounded: makespan %.0fs vs FIFO %.0fs",
			pre.MakespanSec, fifo.MakespanSec)
	}
	t.Logf("online p99: FIFO %.1fs → preempt %.1fs; makespan %.0fs → %.0fs; preempted %d jobs",
		onFIFO.DelayP99Sec, onPre.DelayP99Sec, fifo.MakespanSec, pre.MakespanSec, pre.PreemptedJobs)

	// Determinism across repeated facade calls with every extension on.
	all := append(fleet, WithPreemption(), WithContinuousBatching())
	first, err := Cluster(m, reqs, all...)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Cluster(m, reqs, all...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("repeated preemptive+continuous cluster runs differ")
	}
}

// WithPriorityClasses stamps a plain trace declaratively, equivalent to
// hand-tagging the requests.
func TestClusterPriorityClassStamping(t *testing.T) {
	m, _ := ModelByName("OPT-30B")
	reqs, err := NewTimedWorkloadTrace(9, 24, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	opts := []ClusterOption{
		WithAdmission(4, 30),
		WithPriorityClasses(PriorityClass{Class: "Short", Priority: 1, DeadlineSec: 20}),
		WithPreemption(),
	}
	s, err := Cluster(m, reqs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.PriorityByClass(1); !ok {
		t.Fatalf("stamped online class missing: %+v", s.PerPriority)
	}
	// The input trace must not be mutated by the stamping.
	for _, r := range reqs {
		if r.Priority != 0 || r.DeadlineSec != 0 {
			t.Fatalf("caller's trace was mutated: %+v", r)
		}
	}
	// Hand-stamping must agree with the option.
	tagged := make([]TimedRequest, len(reqs))
	copy(tagged, reqs)
	for i := range tagged {
		if tagged[i].Class.Name == "Short" {
			tagged[i].Priority = 1
			tagged[i].DeadlineSec = 20
		}
	}
	byHand, err := Cluster(m, tagged, WithAdmission(4, 30), WithPreemption())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, byHand) {
		t.Error("WithPriorityClasses disagrees with hand-stamped requests")
	}

	if _, err := Cluster(m, reqs, WithPriorityClasses()); err == nil {
		t.Error("empty rule list accepted")
	}
	if _, err := Cluster(m, reqs, WithPriorityClasses(PriorityClass{Class: "Short", Priority: -1})); err == nil {
		t.Error("negative priority accepted")
	}
	if _, err := Cluster(m, reqs, WithPriorityClasses(PriorityClass{Class: "Short", DeadlineSec: -2})); err == nil {
		t.Error("negative deadline accepted")
	}
	if _, err := Cluster(m, reqs, WithPriorityClasses(PriorityClass{Class: "Short", DeadlineSec: math.NaN()})); err == nil {
		t.Error("NaN deadline accepted")
	}
}

// The bursty generator wires through the facade and produces a valid,
// deterministic cluster trace.
func TestWorkloadTraceArrivalProcesses(t *testing.T) {
	for _, p := range ArrivalProcesses() {
		reqs, err := NewWorkloadTraceWithArrivals(3, 16, 2, p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(reqs) != 16 {
			t.Fatalf("%s: %d requests, want 16", p, len(reqs))
		}
		again, err := NewWorkloadTraceWithArrivals(3, 16, 2, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reqs, again) {
			t.Errorf("%s: trace not deterministic per seed", p)
		}
	}
	if _, err := NewWorkloadTraceWithArrivals(3, 16, 2, "sawtooth"); err == nil {
		t.Error("unknown arrival process accepted")
	}
}

// Non-finite rates and deadlines are errors, not NaN timestamps: NaN fails
// every comparison, so a plain "≤ 0" guard used to let it through.
func TestOnlineOfflineTraceRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct{ online, offline, deadline float64 }{
		{nan, 1, 10}, {1, nan, 10}, {inf, 1, 10}, {1, inf, 10},
		{1, 1, nan}, {1, 1, inf},
	} {
		if reqs, err := NewOnlineOfflineTrace(1, 3, 3, c.online, c.offline, c.deadline); err == nil {
			t.Errorf("rates %g/%g, deadline %g accepted: %d requests, first at %g s",
				c.online, c.offline, c.deadline, len(reqs), reqs[0].ArrivalSec)
		}
	}
}

// The online requests of the co-scheduling trace carry priority 1 and the
// given deadline.
func TestOnlineOfflineTraceRoundTrip(t *testing.T) {
	reqs, err := NewOnlineOfflineTrace(5, 8, 12, 1.0, 1.5, 30)
	if err != nil {
		t.Fatal(err)
	}
	online := 0
	for _, r := range reqs {
		if r.Priority == 1 {
			online++
			if r.DeadlineSec != 30 {
				t.Errorf("online request lost its deadline: %+v", r)
			}
		}
	}
	if online != 8 {
		t.Errorf("%d online requests, want 8", online)
	}
}

// A generated trace written in the six-column format reads back unchanged
// through the facade.
func TestArrivalTraceRoundTripFacade(t *testing.T) {
	reqs, err := NewTimedWorkloadTrace(5, 20, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.WriteString("arrival_sec,class,input_tokens,output_tokens,priority,deadline_sec\n")
	for _, r := range reqs {
		fmt.Fprintf(&buf, "%s,%s,%d,%d,%d,%s\n", strconv.FormatFloat(r.ArrivalSec, 'g', -1, 64),
			r.Class.Name, r.Class.Input, r.Class.Output, r.Priority, strconv.FormatFloat(r.DeadlineSec, 'g', -1, 64))
	}
	back, err := ReadArrivalTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reqs, back) {
		t.Error("arrival trace did not round-trip through CSV")
	}
}

// Robustness facade: WithFaults with a zero-value plan is bit-identical to
// no faults at all; a real fail-stop schedule kills and recovers work with
// nothing lost; and the InstInfer tier absorbs degraded traffic once the
// exact pipelines wear out.
func TestClusterWithFaults(t *testing.T) {
	m, err := ModelByName("OPT-30B")
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := NewTimedWorkloadTrace(11, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	fleet := []ClusterOption{
		WithFleet(SystemHILOS, 2, 8),
		WithFleet(SystemInstInfer, 1, 8),
		WithAdmission(8, 30),
		WithDispatchPolicy(DispatchLeastLoaded),
	}

	plain, err := Cluster(m, reqs, fleet...)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := Cluster(m, reqs, append(append([]ClusterOption{}, fleet...), WithFaults(FaultPlan{Seed: 3}))...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, empty) {
		t.Fatal("empty fault plan changed the summary")
	}

	schedule, err := GenerateFailStops(3, 3, plain.MakespanSec, plain.MakespanSec/4, 120)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Cluster(m, reqs, append(append([]ClusterOption{}, fleet...),
		WithFaults(FaultPlan{Seed: 3, Events: schedule, TransientProb: 0.1}))...)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Admitted != faulty.Completed+faulty.FailedJobs {
		t.Fatalf("jobs lost under faults: admitted %d, completed %d, failed %d",
			faulty.Admitted, faulty.Completed, faulty.FailedJobs)
	}
	if faulty.FaultsInjected == 0 {
		t.Fatalf("no faults fired from schedule %v", schedule)
	}
	again, err := Cluster(m, reqs, append(append([]ClusterOption{}, fleet...),
		WithFaults(FaultPlan{Seed: 3, Events: schedule, TransientProb: 0.1}))...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(faulty, again) {
		t.Fatal("faulty replay is not deterministic")
	}

	// A custom retry policy is honored: zero retries make the first
	// transient error terminal.
	strict, err := Cluster(m, reqs, append(append([]ClusterOption{}, fleet...),
		WithFaults(FaultPlan{Seed: 3, TransientProb: 1}),
		WithRetryPolicy(ClusterRetryPolicy{}))...)
	if err != nil {
		t.Fatal(err)
	}
	if strict.Completed != 0 || strict.RetriedBatches != 0 || strict.FailedJobs != strict.Admitted {
		t.Fatalf("zero-retry policy not honored: %+v", strict)
	}
}

// A vLLM pipeline is billed and powered for the hardware its engine
// simulates: two hosts and eight RTX A6000s amortized over three years,
// and both hosts' and the A6000s' power with no offload SSDs.
func TestClusterVLLMTierHardware(t *testing.T) {
	m, err := ModelByName("OPT-30B")
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := NewTimedWorkloadTrace(5, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Cluster(m, reqs, WithFleet(SystemVLLM, 1, 0), WithAdmission(8, 30))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed == 0 || len(s.Pipelines) != 1 {
		t.Fatalf("degenerate vLLM summary: %d completed on %d pipelines", s.Completed, len(s.Pipelines))
	}
	tb := device.DefaultTestbed()
	usdPerHour := (2*tb.HostUSD + 8*device.A6000().PriceUSD) / amortHours
	hw := device.Hardware{Hosts: 2, GPU: device.A6000(), GPUs: 8}
	var wantUSD, wantJ float64
	for _, a := range s.Assignments {
		wantUSD += float64(usdPerHour / 3600 * a.ExecSec())
		eb, err := energy.PerToken(tb, a.Report, hw)
		if err != nil {
			t.Fatal(err)
		}
		wantJ += float64(eb.Total() * float64(len(a.Batch.JobIDs)*a.Batch.Class.Output))
	}
	p := s.Pipelines[0]
	if math.Abs(p.CostUSD-wantUSD) > 1e-12*wantUSD {
		t.Errorf("vLLM pipeline cost $%.6f, want $%.6f (2 hosts + 8× A6000)", p.CostUSD, wantUSD)
	}
	if math.Abs(p.EnergyJ-wantJ) > 1e-12*wantJ {
		t.Errorf("vLLM pipeline energy %.3f J, want %.3f J (2 hosts + 8× A6000, no SSD)", p.EnergyJ, wantJ)
	}
}
