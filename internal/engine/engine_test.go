package engine

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/model"
	"repro/internal/pipeline"
)

func TestNewUnknownSystem(t *testing.T) {
	_, err := New("no-such-system", Config{Testbed: device.DefaultTestbed()})
	if err == nil || !strings.Contains(err.Error(), "unknown system") {
		t.Fatalf("unknown system resolved: %v", err)
	}
}

// A Config left at its zero fields builds the same engine as one spelled
// out with the paper defaults, and invalid configurations are rejected.
func TestNewNormalizesAndValidates(t *testing.T) {
	tb := device.DefaultTestbed()
	got, err := New(SysHILOS, Config{Testbed: tb, Alpha: -0.25})
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(SysHILOS, Config{Testbed: tb, Devices: 8, SpillInterval: 16, Alpha: AlphaAuto})
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != SysHILOS || got.Describe() != want.Describe() {
		t.Errorf("engine identity %q / %q, want %q / %q", got.Name(), got.Describe(), SysHILOS, want.Describe())
	}
	req := pipeline.Request{Model: model.OPT66B, Batch: 16, Context: 16 << 10, OutputLen: 64}
	if g, w := got.Run(req), want.Run(req); !reflect.DeepEqual(g, w) {
		t.Errorf("normalized config ran differently: step %v s, want %v s", g.StepSec, w.StepSec)
	}

	if _, err := New(SysHILOS, Config{}); err == nil {
		t.Error("zero-value testbed accepted")
	}
	if _, err := New(SysHILOS, Config{Testbed: tb, Alpha: 1.5}); err == nil {
		t.Error("α > 1 accepted")
	}
	if _, err := New(SysHILOS, Config{Testbed: tb, Alpha: math.NaN()}); err == nil {
		t.Error("NaN α accepted")
	}
}

// An ablation without the X-cache ignores α, and one without delayed
// writeback ignores the spill interval.
func TestAblationsIgnoreUnusedKnobs(t *testing.T) {
	tb := device.DefaultTestbed()
	req := pipeline.Request{Model: model.OPT66B, Batch: 16, Context: 16 << 10, OutputLen: 64}
	for _, c := range []struct {
		sys System
		cfg Config
	}{
		{SysHILOSANS, Config{Testbed: tb, Alpha: 0.5}},
		{SysHILOSANS, Config{Testbed: tb, SpillInterval: 4}},
		{SysHILOSWB, Config{Testbed: tb, Alpha: 0.5}},
		{SysHILOSX, Config{Testbed: tb, SpillInterval: 4}},
	} {
		eng, err := New(c.sys, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		def, err := New(c.sys, Config{Testbed: tb})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(eng.Run(req), def.Run(req)) {
			t.Errorf("%s with α=%g spill=%d ran differently from the defaults", c.sys, c.cfg.Alpha, c.cfg.SpillInterval)
		}
	}
}

// Systems lists the table in the paper's Fig. 10 order, with the InstInfer
// tier between the baselines and the HILOS family.
func TestSystemsOrdering(t *testing.T) {
	want := []System{
		SysFlexSSD, SysFlexDRAM, SysFlex16SSD, SysDSUVM, SysVLLM,
		SysInstInfer, SysHILOS, SysHILOSANS, SysHILOSWB, SysHILOSX,
	}
	if got := Systems(); !reflect.DeepEqual(got, want) {
		t.Errorf("Systems() = %v, want %v", got, want)
	}
}

// Each row prices and powers the hardware its simulator models: the
// FlexGen hosts and DS+UVM have four plain SSDs; flex-16ssd has the
// 16-SmartSSD array with its accelerators off; vLLM is two hosts and eight
// RTX A6000s with no offload storage; InstInfer and the HILOS family have
// the Config's SmartSSDs with their accelerators on.
func TestSystemHardware(t *testing.T) {
	tb := device.DefaultTestbed()
	const n = 12
	plain := device.Hardware{Hosts: 1, GPU: tb.GPU, GPUs: 1, PlainSSDs: 4}
	nsp := device.Hardware{Hosts: 1, GPU: tb.GPU, GPUs: 1, SmartSSDs: n, Accels: true}
	rows := []struct {
		sys   System
		hw    device.Hardware
		lossy bool
	}{
		{SysFlexSSD, plain, false},
		{SysFlexDRAM, plain, false},
		{SysFlex16SSD, device.Hardware{Hosts: 1, GPU: tb.GPU, GPUs: 1, SmartSSDs: 16}, false},
		{SysDSUVM, plain, false},
		{SysVLLM, device.Hardware{Hosts: 2, GPU: device.A6000(), GPUs: 8}, false},
		{SysInstInfer, nsp, true},
		{SysHILOS, nsp, false},
		{SysHILOSANS, nsp, false},
		{SysHILOSWB, nsp, false},
		{SysHILOSX, nsp, false},
	}
	if len(rows) != len(Systems()) {
		t.Fatalf("%d rows checked, table has %d systems", len(rows), len(Systems()))
	}
	for _, r := range rows {
		t.Run(string(r.sys), func(t *testing.T) {
			eng, err := New(r.sys, Config{Testbed: tb, Devices: n})
			if err != nil {
				t.Fatal(err)
			}
			if eng.hw != r.hw {
				t.Errorf("hardware %+v, want %+v", eng.hw, r.hw)
			}
			if eng.tb != tb {
				t.Error("engine testbed differs from the Config's")
			}
			if eng.Lossy() != r.lossy {
				t.Errorf("lossy = %v, want %v", eng.Lossy(), r.lossy)
			}
		})
	}
}

// The vLLM deployment powers both of its hosts: on the same report, its CPU
// and DRAM joules are twice those of a one-host FlexGen server.
func TestVLLMPowersBothHosts(t *testing.T) {
	tb := device.DefaultTestbed()
	rep := pipeline.Report{Batch: 4, StepSec: 0.3,
		ResourceBusy: map[string]float64{pipeline.ResCPU: 0.1, pipeline.ResGPU: 0.2}}
	energyOf := func(sys System) energy.Breakdown {
		t.Helper()
		eng, err := New(sys, Config{Testbed: tb})
		if err != nil {
			t.Fatal(err)
		}
		b, err := eng.Energy(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	vllm, flex := energyOf(SysVLLM), energyOf(SysFlexSSD)
	if vllm.CPU != 2*flex.CPU || vllm.DRAM != 2*flex.DRAM {
		t.Errorf("vllm CPU %v J, DRAM %v J; want two hosts' %v J, %v J", vllm.CPU, vllm.DRAM, 2*flex.CPU, 2*flex.DRAM)
	}
}
