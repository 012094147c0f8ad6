package endurance

import (
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// Fig. 16(b): HILOS improves endurance by 1.34×–1.47× over the 16-SSD
// baseline across request classes.
func TestHILOSEnduranceGain(t *testing.T) {
	flex := FlexWrites()
	hilos := HILOSWrites(0.5, 16)
	for _, m := range []model.Config{model.OPT30B, model.OPT66B, model.OPT175B} {
		for _, class := range workload.Classes() {
			fb, err := flex.BytesPerRequest(m, class)
			if err != nil {
				t.Fatal(err)
			}
			hb, err := hilos.BytesPerRequest(m, class)
			if err != nil {
				t.Fatal(err)
			}
			gain := fb / hb
			if gain < 1.25 || gain > 1.65 {
				t.Errorf("%s/%s: endurance gain %.2f outside the paper's ≈1.34–1.47 band",
					m.Name, class.Name, gain)
			}
		}
	}
}

// §6.6: increasing c from 16 to 32 yields an additional 1.02×–1.05×.
func TestSpillIntervalEnduranceGain(t *testing.T) {
	c16 := HILOSWrites(0.5, 16)
	c32 := HILOSWrites(0.5, 32)
	var minGain, maxGain = 1e9, 0.0
	for _, m := range []model.Config{model.OPT30B, model.OPT66B, model.OPT175B} {
		for _, class := range workload.Classes() {
			b16, _ := c16.BytesPerRequest(m, class)
			b32, _ := c32.BytesPerRequest(m, class)
			g := b16 / b32
			if g < 1 {
				t.Errorf("%s/%s: c=32 wrote more than c=16", m.Name, class.Name)
			}
			if g < minGain {
				minGain = g
			}
			if g > maxGain {
				maxGain = g
			}
		}
	}
	if maxGain < 1.02 || maxGain > 1.10 {
		t.Errorf("peak c=16→32 gain %.3f, paper reports 1.02–1.05", maxGain)
	}
}

// §6.6: "Even for long requests with the 175B model, our system supports
// over 4.08 million requests" on 16 SmartSSDs.
func TestLongRequests175B(t *testing.T) {
	n, err := ServiceableRequests(model.OPT175B, workload.Long, HILOSWrites(0.5, 16), 16, 7.008)
	if err != nil {
		t.Fatal(err)
	}
	if n < 3.5e6 || n > 5.5e6 {
		t.Errorf("serviceable long/175B requests = %.2fM, paper reports ≈ 4.08M", n/1e6)
	}
}

// Write volume ordering: naive per-entry < coalesced < delayed writeback
// never inverts; more output tokens always cost more.
func TestWriteVolumeMonotonicity(t *testing.T) {
	h := HILOSWrites(0.5, 16)
	small, _ := h.BytesPerRequest(model.OPT66B, workload.Short)
	large, _ := h.BytesPerRequest(model.OPT66B, workload.Long)
	if large <= small {
		t.Error("long request wrote no more than short")
	}
	f := FlexWrites()
	fb, _ := f.BytesPerRequest(model.OPT66B, workload.Short)
	hb, _ := h.BytesPerRequest(model.OPT66B, workload.Short)
	if hb >= fb {
		t.Error("HILOS writes not below FLEX")
	}
}

func TestInvalidClass(t *testing.T) {
	if _, err := FlexWrites().BytesPerRequest(model.OPT30B, workload.Class{}); err == nil {
		t.Error("empty class accepted")
	}
	if _, err := ServiceableRequests(model.OPT30B, workload.Class{}, FlexWrites(), 16, 7.008); err == nil {
		t.Error("ServiceableRequests accepted empty class")
	}
}

func TestPBWBytes(t *testing.T) {
	if PBWBytes(7.008) != 7.008e15 {
		t.Errorf("PBWBytes = %v", PBWBytes(7.008))
	}
}

// Budget boundary semantics: Add crosses exactly once, and a write landing
// precisely on the limit exhausts the budget (the allowance is inclusive).
func TestBudgetExactThreshold(t *testing.T) {
	b := NewBudget(100)
	if b.Add(40) || b.exhausted {
		t.Fatal("crossed below the limit")
	}
	// 40 + 60 lands exactly on the limit: that write exhausts the budget.
	if !b.Add(60) {
		t.Fatal("write landing exactly at the threshold did not cross")
	}
	if !b.exhausted {
		t.Error("budget not exhausted at the threshold")
	}
	// Crossing reports once; usage keeps accumulating past the boundary.
	if b.Add(5) {
		t.Error("second crossing reported")
	}
	if b.used != 105 {
		t.Errorf("used %g, want 105", b.used)
	}
}

// Past the boundary in one oversized write: still a single crossing.
func TestBudgetOvershoot(t *testing.T) {
	b := NewBudget(10)
	if !b.Add(25) {
		t.Fatal("oversized write did not cross")
	}
	if b.Add(1) {
		t.Error("crossing reported twice")
	}
	if !b.exhausted || b.used != 26 {
		t.Errorf("state after overshoot: exhausted=%v used=%g", b.exhausted, b.used)
	}
}

// A budget shared by several pipelines exhausts on their combined volume:
// whichever pipeline's write crosses the array-wide allowance observes the
// crossing, and every sharer sees it exhausted afterwards.
func TestBudgetSharedAcrossPipelines(t *testing.T) {
	shared := NewBudget(100)
	// Pipelines 0 and 1 alternate 30-byte spills: 30, 60, 90, then
	// pipeline 1's fourth spill crosses at 120.
	for i := 0; i < 3; i++ {
		if shared.Add(30) {
			t.Fatalf("crossed on spill %d at %g bytes", i, shared.used)
		}
	}
	if !shared.Add(30) {
		t.Fatal("combined volume crossed the shared budget without reporting")
	}
	if !shared.exhausted {
		t.Error("sharer does not observe exhaustion")
	}
}

// A nil budget is unlimited; an array's §6.6 budget of devices × PBW
// crosses exactly at that volume.
func TestBudgetNilAndDevices(t *testing.T) {
	var b *Budget
	if b.Add(1e18) {
		t.Error("nil budget crossed")
	}
	limit := 16 * PBWBytes(DefaultPBW)
	db := NewBudget(limit)
	if db.Add(limit/2) || !db.Add(limit/2) {
		t.Errorf("16-device budget did not cross at %g bytes", limit)
	}
}
