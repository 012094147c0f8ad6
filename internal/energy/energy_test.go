package energy

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/pipeline"
)

func TestPerTokenComponents(t *testing.T) {
	tb := device.DefaultTestbed()
	rep := pipeline.Report{
		Batch: 2, StepSec: 10,
		ResourceBusy: map[string]float64{pipeline.ResCPU: 4, pipeline.ResGPU: 1},
	}
	b, err := PerToken(tb, rep, device.Hardware{Hosts: 1, GPU: tb.GPU, GPUs: 1, PlainSSDs: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantCPU := (4*tb.CPU.BusyPowerW + 6*tb.CPU.IdlePowerW) / 2
	if b.CPU != wantCPU {
		t.Errorf("CPU energy = %v, want %v", b.CPU, wantCPU)
	}
	wantSSD := 4 * tb.PlainSSD.PowerW * 10 / 2
	if b.SSD != wantSSD {
		t.Errorf("SSD energy = %v, want %v", b.SSD, wantSSD)
	}
	if b.Total() <= 0 {
		t.Error("total energy not positive")
	}
}

func TestPerTokenErrors(t *testing.T) {
	tb := device.DefaultTestbed()
	hw := device.Hardware{Hosts: 1, GPU: tb.GPU, GPUs: 1}
	if _, err := PerToken(tb, pipeline.Report{OOM: true}, hw); err == nil {
		t.Error("OOM report accepted")
	}
	if _, err := PerToken(tb, pipeline.Report{Batch: 1}, hw); err == nil {
		t.Error("report without a decode step accepted")
	}
	if _, err := PerToken(tb, pipeline.Report{StepSec: 1}, hw); err == nil {
		t.Error("report without a batch accepted")
	}
}

// Fig. 17(a): FLEX(SSD) has the worst energy per token (low throughput
// keeps everything powered long); HILOS is far more efficient despite the
// SmartSSDs drawing more power than plain SSDs (§6.6: up to 85% reduction).
func TestHILOSMoreEfficientThanFlexSSD(t *testing.T) {
	tb := device.DefaultTestbed()
	req := pipeline.Request{Model: model.OPT66B, Batch: 16, Context: 65536, OutputLen: 64}

	flex := baseline.FlexSSD(tb).Run(tb, req)
	eFlex, err := PerToken(tb, flex, device.Hardware{Hosts: 1, GPU: tb.GPU, GPUs: 1, PlainSSDs: 4})
	if err != nil {
		t.Fatal(err)
	}
	hilos := core.Run(tb, req, core.Options{Devices: 16, XCache: true, DelayedWriteback: true, Alpha: -1, SpillInterval: 16})
	eHILOS, err := PerToken(tb, hilos, device.Hardware{Hosts: 1, GPU: tb.GPU, GPUs: 1, SmartSSDs: 16, Accels: true})
	if err != nil {
		t.Fatal(err)
	}
	saving := 1 - eHILOS.Total()/eFlex.Total()
	if saving < 0.5 {
		t.Errorf("HILOS energy saving = %.0f%%, paper reports up to 85%%", saving*100)
	}
	if saving > 0.95 {
		t.Errorf("HILOS energy saving = %.0f%% implausibly high", saving*100)
	}
}

func TestClamp(t *testing.T) {
	if clamp(-1, 0, 10) != 0 || clamp(11, 0, 10) != 10 || clamp(5, 0, 10) != 5 {
		t.Error("clamp broken")
	}
}

func TestGPUCountScaling(t *testing.T) {
	tb := device.DefaultTestbed()
	rep := pipeline.Report{Batch: 1, StepSec: 1,
		ResourceBusy: map[string]float64{pipeline.ResGPU: 1}}
	one, _ := PerToken(tb, rep, device.Hardware{Hosts: 1, GPU: tb.GPU, GPUs: 1})
	eight, _ := PerToken(tb, rep, device.Hardware{Hosts: 1, GPU: tb.GPU, GPUs: 8})
	if eight.GPU != 8*one.GPU {
		t.Errorf("GPU energy did not scale with count: %v vs %v", eight.GPU, one.GPU)
	}
}

// Every host draws its own CPU and DRAM power: a two-host system spends
// exactly twice one host's CPU and DRAM joules, and the same GPU and SSD
// joules (the multi-node vLLM deployment has two hosts).
func TestHostCountScaling(t *testing.T) {
	tb := device.DefaultTestbed()
	rep := pipeline.Report{Batch: 4, StepSec: 0.3,
		ResourceBusy: map[string]float64{pipeline.ResCPU: 0.1, pipeline.ResGPU: 0.2}}
	hw := device.Hardware{Hosts: 1, GPU: device.A6000(), GPUs: 8, SmartSSDs: 4, Accels: true}
	one, err := PerToken(tb, rep, hw)
	if err != nil {
		t.Fatal(err)
	}
	hw.Hosts = 2
	two, err := PerToken(tb, rep, hw)
	if err != nil {
		t.Fatal(err)
	}
	if two.CPU != 2*one.CPU || two.DRAM != 2*one.DRAM {
		t.Errorf("2 hosts: CPU %v J, DRAM %v J; want twice 1 host's %v J, %v J", two.CPU, two.DRAM, one.CPU, one.DRAM)
	}
	if two.GPU != one.GPU || two.SSD != one.SSD {
		t.Errorf("2 hosts: GPU %v J, SSD %v J; want 1 host's %v J, %v J", two.GPU, two.SSD, one.GPU, one.SSD)
	}
}

// A SmartSSD draws its SSD power, plus its accelerator's only when the
// accelerators are on; plain SSDs draw the PM9A3's.
func TestSSDPower(t *testing.T) {
	tb := device.DefaultTestbed()
	rep := pipeline.Report{Batch: 1, StepSec: 1, ResourceBusy: map[string]float64{}}
	cases := []struct {
		hw   device.Hardware
		want float64
	}{
		{device.Hardware{PlainSSDs: 4}, 4 * tb.PlainSSD.PowerW},
		{device.Hardware{SmartSSDs: 16}, 16 * tb.SmartSSD.SSD.PowerW},
		{device.Hardware{SmartSSDs: 8, Accels: true}, 8 * (tb.SmartSSD.SSD.PowerW + tb.SmartSSD.AccelPowerW)},
		{device.Hardware{}, 0},
	}
	for _, c := range cases {
		b, err := PerToken(tb, rep, c.hw)
		if err != nil {
			t.Fatal(err)
		}
		if b.SSD != c.want {
			t.Errorf("%+v: SSD %v J, want %v J", c.hw, b.SSD, c.want)
		}
	}
}
