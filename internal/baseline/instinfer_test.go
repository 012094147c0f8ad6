package baseline

import (
	"testing"

	"repro/internal/device"
	"repro/internal/longbench"
	"repro/internal/model"
	"repro/internal/pipeline"
)

// The lossy 1/8 retrieval reads an eighth of the KV stream, so InstInfer's
// decoding step must beat the full-cache SSD baseline on long contexts
// while staying slower than nothing — and its report must be complete.
func TestInstInferFasterThanFlexSSDOnLongContext(t *testing.T) {
	tb := device.DefaultTestbed()
	req := pipeline.Request{Model: model.OPT66B, Batch: 16, Context: 64 * 1024, OutputLen: 64}
	rep := InstInfer{Devices: 16}.Run(tb, req)
	if rep.OOM {
		t.Fatalf("instinfer OOM: %s", rep.Reason)
	}
	if rep.Batch != 16 || rep.StepSec <= 0 || rep.PrefillSec <= 0 {
		t.Fatalf("incomplete report %+v", rep)
	}
	if rep.DecodeWriteBytesPerStep <= 0 {
		t.Error("no write accounting for endurance analysis")
	}
	flex := FlexSSD(tb).Run(tb, req)
	if flex.OOM {
		t.Fatalf("flex-ssd OOM: %s", flex.Reason)
	}
	if rep.StepSec >= flex.StepSec {
		t.Errorf("instinfer step %v s not below flex-ssd %v s despite reading 1/8 of the KV cache",
			rep.StepSec, flex.StepSec)
	}
}

func TestInstInferOOMOnImpossibleRequest(t *testing.T) {
	tb, one := device.DefaultTestbed(), InstInfer{Devices: 1}
	// One device cannot hold OPT-175B weights plus a long-context KV cache.
	rep := one.Run(tb, pipeline.Request{Model: model.OPT175B, Batch: 256, Context: 1024 * 1024, OutputLen: 64})
	if !rep.OOM || rep.Reason == "" {
		t.Errorf("expected OOM with reason, got %+v", rep)
	}
	rep = one.Run(tb, pipeline.Request{Model: model.OPT66B, Batch: 0, Context: 1, OutputLen: 1})
	if !rep.OOM {
		t.Error("invalid request not reported as OOM")
	}
}

// The timing model's 1/8 knob is the accuracy harness's 1/8 knob: lossy
// retrieval must cost accuracy against the exact reference on the
// evidence-sparse tasks — the trade that makes InstInfer a distinct fleet
// tier rather than a free lunch.
func TestInstInferAccuracyTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy scoring is slow")
	}
	task := longbench.Suite()[0]
	task.Samples = 60 // enough to separate exact from 1/8 retrieval
	const seed = 9
	lossy, err := task.Score(seed, longbench.LossyOneEighth)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := task.Score(seed, longbench.Exact)
	if err != nil {
		t.Fatal(err)
	}
	if lossy >= exact {
		t.Errorf("lossy 1/8 retrieval scored %.1f%%, not below exact %.1f%%", lossy, exact)
	}
	if lossy <= 0 {
		t.Errorf("lossy retrieval score %.1f%% degenerate", lossy)
	}
}
