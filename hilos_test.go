package hilos

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/engine"
)

// All ten System identifiers resolve through the engine table to an Engine
// whose name round-trips, in the paper's Fig. 10 presentation order (the
// InstInfer tier sits between the baselines and the HILOS family).
func TestRegistryResolvesAllSystems(t *testing.T) {
	want := []System{
		SystemFlexSSD, SystemFlexDRAM, SystemFlex16SSD, SystemDSUVM,
		SystemVLLM, SystemInstInfer, SystemHILOS, SystemHILOSANS, SystemHILOSWB, SystemHILOSXOnly,
	}
	got := Systems()
	if len(got) != len(want) {
		t.Fatalf("Systems() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Systems()[%d] = %q, want %q (presentation order must be stable)", i, got[i], want[i])
		}
	}

	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range want {
		eng, err := s.Engine(sys)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if eng.Name() != sys {
			t.Errorf("%s: engine reports name %q", sys, eng.Name())
		}
		if eng.Describe() == "" || DescribeSystem(sys) == "" {
			t.Errorf("%s: empty description", sys)
		}
	}
	if _, err := s.Engine(System("bogus")); err == nil {
		t.Error("unknown system resolved")
	}
	if DescribeSystem(System("bogus")) != "" {
		t.Error("unknown system described")
	}
}

func TestNewOptionValidation(t *testing.T) {
	for name, opt := range map[string]Option{
		"devices 0":   WithDevices(0),
		"alpha 1.5":   WithAlpha(1.5),
		"alpha NaN":   WithAlpha(math.NaN()),
		"spill 0":     WithSpillInterval(0),
		"pipelines 0": WithPipelines(0),
	} {
		if _, err := New(opt); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := New(WithDevices(16), WithAlpha(0.5), WithSpillInterval(32), WithPipelines(4)); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

// Scheduling a 200-request Azure-like backlog over 4 pipelines strictly
// lowers the makespan while generating the identical token total.
func TestBacklogPipelinesSpeedup(t *testing.T) {
	m, _ := ModelByName("OPT-30B")
	trace, err := NewWorkloadTrace(11, 200)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := New(WithDevices(16), WithPipelines(1))
	if err != nil {
		t.Fatal(err)
	}
	fanned, err := New(WithDevices(16), WithPipelines(4))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := serial.Backlog(m, trace, 16, SystemVLLM)
	if err != nil {
		t.Fatal(err)
	}
	s4, err := fanned.Backlog(m, trace, 16, SystemVLLM)
	if err != nil {
		t.Fatal(err)
	}
	if s4.MakespanSec >= s1.MakespanSec {
		t.Errorf("4 pipelines (%.1fs) not strictly below 1 pipeline (%.1fs)", s4.MakespanSec, s1.MakespanSec)
	}
	if s4.OutputTokens != s1.OutputTokens {
		t.Errorf("token totals differ: %d vs %d", s4.OutputTokens, s1.OutputTokens)
	}
	if len(s4.Pipelines) != 4 {
		t.Errorf("per-pipeline attribution missing: %+v", s4)
	}
	// Determinism across runs.
	again, err := fanned.Backlog(m, trace, 16, SystemVLLM)
	if err != nil {
		t.Fatal(err)
	}
	if again.MakespanSec != s4.MakespanSec {
		t.Errorf("makespan nondeterministic: %v vs %v", again.MakespanSec, s4.MakespanSec)
	}
}

func TestEnergyBreakdownFacade(t *testing.T) {
	s, _ := New()
	m, _ := ModelByName("OPT-30B")
	eng, err := s.Engine(SystemHILOS)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Energy(eng.Run(Request{Model: m, Batch: 8, Context: 16384, OutputLen: 32}))
	if err != nil {
		t.Fatal(err)
	}
	if b.CPU <= 0 || b.DRAM <= 0 || b.GPU <= 0 || b.SSD <= 0 {
		t.Errorf("energy breakdown %+v", b)
	}
	if b.Total() != b.CPU+b.DRAM+b.GPU+b.SSD {
		t.Error("Total() does not sum the components")
	}
}

// New simulates on the paper defaults: the Table 1 testbed, 8 SmartSSDs,
// automatic α and spill interval 16.
func TestNewDefaults(t *testing.T) {
	m, _ := ModelByName("OPT-30B")
	req := Request{Model: m, Batch: 8, Context: 16384, OutputLen: 32}
	got, err := Must(New()).Simulate(SystemHILOS, req)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(SystemHILOS, engine.Config{Testbed: device.DefaultTestbed(), Devices: 8, Alpha: AlphaAuto, SpillInterval: 16})
	if err != nil {
		t.Fatal(err)
	}
	if want := eng.Run(req); !reflect.DeepEqual(got, want) {
		t.Errorf("New() report differs from the paper-default engine's:\n%+v\n%+v", got, want)
	}
}

func TestModelsFacade(t *testing.T) {
	m, err := ModelByName("OPT-66B")
	if err != nil || m.Layers != 64 {
		t.Errorf("ModelByName = %+v, %v", m, err)
	}
	if _, err := ModelByName("nope"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestRunAllSystems(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	m, _ := ModelByName("OPT-66B")
	req := Request{Model: m, Batch: 8, Context: 16384, OutputLen: 32}
	for _, sys := range Systems() {
		rep, err := s.Simulate(sys, req)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if !rep.OOM && rep.DecodeTokPerSec() <= 0 {
			t.Errorf("%s: non-positive throughput", sys)
		}
	}
	if _, err := s.Simulate(System("bogus"), req); err == nil {
		t.Error("unknown system accepted")
	}
}

// A malformed request is an error, not an out-of-memory report.
func TestSimulateRejectsMalformedRequests(t *testing.T) {
	s := Must(New())
	m, _ := ModelByName("OPT-30B")
	ok := Request{Model: m, Batch: 4, Context: 4096, OutputLen: 16}
	bad := map[string]func(*Request){
		"batch 0":      func(r *Request) { r.Batch = 0 },
		"context -1":   func(r *Request) { r.Context = -1 },
		"output len 0": func(r *Request) { r.OutputLen = 0 },
	}
	for _, sys := range []System{SystemHILOS, SystemFlexSSD, SystemVLLM} {
		if _, err := s.Simulate(sys, ok); err != nil {
			t.Fatalf("%s: well-formed request rejected: %v", sys, err)
		}
		for name, mutate := range bad {
			req := ok
			mutate(&req)
			rep, err := s.Simulate(sys, req)
			if err == nil {
				t.Errorf("%s, %s: no error (report OOM=%t, reason %q)", sys, name, rep.OOM, rep.Reason)
			}
		}
	}
}

func TestHILOSBeatsFlexSSDViaFacade(t *testing.T) {
	s := Must(New(WithDevices(16)))
	m, _ := ModelByName("OPT-66B")
	req := Request{Model: m, Batch: 16, Context: 65536, OutputLen: 64}
	base, _ := s.Simulate(SystemFlexSSD, req)
	h, _ := s.Simulate(SystemHILOS, req)
	if h.DecodeTokPerSec() <= base.DecodeTokPerSec() {
		t.Error("HILOS not faster than FLEX(SSD) through the facade")
	}
}

func TestChooseAlphaFacade(t *testing.T) {
	s, _ := New()
	m, _ := ModelByName("OPT-66B")
	a, err := s.ChooseAlpha(m, 16, 32768, 8)
	if err != nil || a != 0.5 {
		t.Errorf("ChooseAlpha = %v, %v; want 0.5", a, err)
	}
}

// Each engine integrates its own storage power model: the same report
// costs the four plain SSDs on flex-ssd and 16 powered SmartSSDs on a
// 16-device HILOS, with the host's share unchanged.
func TestEnergyFacade(t *testing.T) {
	s := Must(New(WithDevices(16)))
	m, _ := ModelByName("OPT-30B")
	flex, err := s.Engine(SystemFlexSSD)
	if err != nil {
		t.Fatal(err)
	}
	nsp, err := s.Engine(SystemHILOS)
	if err != nil {
		t.Fatal(err)
	}
	rep := flex.Run(Request{Model: m, Batch: 8, Context: 16384, OutputLen: 32})
	plain, err := flex.Energy(rep)
	if err != nil {
		t.Fatal(err)
	}
	smart, err := nsp.Energy(rep)
	if err != nil {
		t.Fatal(err)
	}
	if plain.CPU <= 0 || plain.DRAM <= 0 || plain.GPU <= 0 || plain.SSD <= 0 {
		t.Errorf("plain-SSD energy components %+v", plain)
	}
	if smart.SSD == plain.SSD || smart.CPU != plain.CPU {
		t.Errorf("engine did not select its storage model: plain %+v, smart %+v", plain, smart)
	}
}

func TestExperimentFacade(t *testing.T) {
	s, _ := New()
	tab, err := s.ExperimentByID("table3")
	if err != nil || len(tab.Rows) != 3 {
		t.Errorf("ExperimentByID(table3) = %d rows, %v", len(tab.Rows), err)
	}
	if _, err := s.ExperimentByID("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
	if len(ExperimentIDs()) < 15 {
		t.Errorf("only %d experiment IDs", len(ExperimentIDs()))
	}
}

func TestAccuracySuiteFacade(t *testing.T) {
	if len(AccuracySuite()) != 5 {
		t.Errorf("AccuracySuite has %d tasks, want 5", len(AccuracySuite()))
	}
}

// A request count below 1 is an error, not a makeslice panic.
func TestNewWorkloadTraceRejectsBadCount(t *testing.T) {
	for _, n := range []int{0, -1} {
		if trace, err := NewWorkloadTrace(7, n); err == nil || !strings.HasPrefix(err.Error(), "hilos: ") {
			t.Errorf("NewWorkloadTrace(7, %d) = %d classes, %v; want a hilos: error", n, len(trace), err)
		}
	}
}

func TestRunBacklogFacade(t *testing.T) {
	s := Must(New(WithDevices(16)))
	m, _ := ModelByName("OPT-30B")
	trace, err := NewWorkloadTrace(5, 20)
	if err != nil {
		t.Fatal(err)
	}
	flex, err := s.Backlog(m, trace, 16, SystemFlexSSD)
	if err != nil {
		t.Fatal(err)
	}
	hil, err := s.Backlog(m, trace, 16, SystemHILOS)
	if err != nil {
		t.Fatal(err)
	}
	if flex.Requests != 20 || hil.Requests != 20 || hil.Completed != 20 {
		t.Errorf("requests = %d / %d (completed %d), want 20", flex.Requests, hil.Requests, hil.Completed)
	}
	if hil.MakespanSec >= flex.MakespanSec {
		t.Errorf("HILOS backlog %.1fs not below FlexGen %.1fs", hil.MakespanSec, flex.MakespanSec)
	}
	if hil.OutputTokens != flex.OutputTokens {
		t.Error("token accounting differs between engines")
	}
	if _, err := s.Backlog(m, nil, 16, SystemHILOS); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := s.Backlog(m, trace, 0, SystemHILOS); err == nil {
		t.Error("batch size 0 accepted")
	}
	if _, err := s.Backlog(m, trace, 16, System("bogus")); err == nil {
		t.Error("unknown system accepted")
	}
}

// Backlog is a list schedule: replaying its assignments in dispatch order
// on a naive earliest-idle schedule (ties to the lowest index) reproduces
// every pipeline choice and start time, and the makespan is the maximum
// pipeline load.
func TestBacklogListSchedule(t *testing.T) {
	const P = 3
	s := Must(New(WithDevices(16), WithPipelines(P)))
	m, _ := ModelByName("OPT-30B")
	trace, err := NewWorkloadTrace(11, 60)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Backlog(m, trace, 4, SystemVLLM)
	if err != nil {
		t.Fatal(err)
	}
	var load [P]float64
	for i, a := range sum.Assignments {
		p := 0
		for q := 1; q < P; q++ {
			if load[q] < load[p] {
				p = q
			}
		}
		if a.Pipeline != p || a.StartSec != load[p] {
			t.Fatalf("assignment %d on pipeline %d at %v, list schedule says %d at %v", i, a.Pipeline, a.StartSec, p, load[p])
		}
		load[p] = a.FinishSec
	}
	want := 0.0
	for _, l := range load {
		want = math.Max(want, l)
	}
	if sum.MakespanSec != want {
		t.Errorf("makespan %v, want max pipeline load %v", sum.MakespanSec, want)
	}
	if sum.Batches != len(sum.Assignments) || sum.FailedBatches != 0 {
		t.Errorf("%d batches, %d assignments, %d failed", sum.Batches, len(sum.Assignments), sum.FailedBatches)
	}
}
