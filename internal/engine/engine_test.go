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
// FlexGen hosts and DS+UVM draw four plain SSDs; flex-16ssd bills the
// 16-SmartSSD array but powers only its SSDs; vLLM is two hosts and eight
// RTX A6000s with no offload storage; InstInfer and the HILOS family power
// the Config's SmartSSDs with their accelerators.
func TestSystemHardware(t *testing.T) {
	tb := device.DefaultTestbed()
	const n = 12
	flexUSD := tb.HostUSD + tb.GPU.PriceUSD + 4*tb.PlainSSD.PriceUSD
	nspUSD := func(k int) float64 {
		return tb.HostUSD + tb.GPU.PriceUSD + tb.ChassisUSD + float64(k)*tb.SmartSSD.PriceUSD
	}
	plain := energy.Config{Storage: energy.PlainSSDs, Devices: 4}
	nsp := energy.Config{Storage: energy.SmartSSDs, Devices: n, AccelPowerW: tb.SmartSSD.AccelPowerW}
	rows := []struct {
		sys   System
		usd   float64
		power energy.Config
		gpu   device.GPUSpec
		lossy bool
	}{
		{SysFlexSSD, flexUSD, plain, tb.GPU, false},
		{SysFlexDRAM, flexUSD, plain, tb.GPU, false},
		{SysFlex16SSD, nspUSD(16), energy.Config{Storage: energy.SmartSSDs, Devices: 16}, tb.GPU, false},
		{SysDSUVM, flexUSD, plain, tb.GPU, false},
		{SysVLLM, 2*tb.HostUSD + 8*device.A6000().PriceUSD, energy.Config{Storage: energy.NoSSD, GPUCount: 8}, device.A6000(), false},
		{SysInstInfer, nspUSD(n), nsp, tb.GPU, true},
		{SysHILOS, nspUSD(n), nsp, tb.GPU, false},
		{SysHILOSANS, nspUSD(n), nsp, tb.GPU, false},
		{SysHILOSWB, nspUSD(n), nsp, tb.GPU, false},
		{SysHILOSX, nspUSD(n), nsp, tb.GPU, false},
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
			if got := eng.PriceUSD(); got != r.usd {
				t.Errorf("price $%v, want $%v", got, r.usd)
			}
			etb, power := eng.EnergyModel()
			if power != r.power {
				t.Errorf("energy model %+v, want %+v", power, r.power)
			}
			want := tb
			want.GPU = r.gpu
			if etb != want {
				t.Errorf("energy testbed GPU %q, want the testbed with %q", etb.GPU.Name, r.gpu.Name)
			}
			if eng.Lossy() != r.lossy {
				t.Errorf("lossy = %v, want %v", eng.Lossy(), r.lossy)
			}
		})
	}
}
