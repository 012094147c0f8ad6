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
	b, err := PerToken(tb, rep, Config{Storage: PlainSSDs, Devices: 4})
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
	if _, err := PerToken(tb, pipeline.Report{OOM: true}, Config{}); err == nil {
		t.Error("OOM report accepted")
	}
	rep := pipeline.Report{Batch: 1, StepSec: 1, ResourceBusy: map[string]float64{}}
	if _, err := PerToken(tb, rep, Config{Storage: StorageKind(9)}); err == nil {
		t.Error("unknown storage kind accepted")
	}
}

// Fig. 17(a): FLEX(SSD) has the worst energy per token (low throughput
// keeps everything powered long); HILOS is far more efficient despite the
// SmartSSDs drawing more power than plain SSDs (§6.6: up to 85% reduction).
func TestHILOSMoreEfficientThanFlexSSD(t *testing.T) {
	tb := device.DefaultTestbed()
	req := pipeline.Request{Model: model.OPT66B, Batch: 16, Context: 65536, OutputLen: 64}

	flex := baseline.FlexSSD(tb).Run(tb, req)
	eFlex, err := PerToken(tb, flex, Config{Storage: PlainSSDs, Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	hilos := core.Run(tb, req, core.Options{Devices: 16, XCache: true, DelayedWriteback: true, Alpha: -1, SpillInterval: 16})
	eHILOS, err := PerToken(tb, hilos, Config{Storage: SmartSSDs, Devices: 16, AccelPowerW: tb.SmartSSD.AccelPowerW})
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
	one, _ := PerToken(tb, rep, Config{Storage: NoSSD, GPUCount: 1})
	eight, _ := PerToken(tb, rep, Config{Storage: NoSSD, GPUCount: 8})
	if eight.GPU != 8*one.GPU {
		t.Errorf("GPU energy did not scale with count: %v vs %v", eight.GPU, one.GPU)
	}
}
