package model

import (
	"fmt"
	"math"
	"testing"
)

func TestPresetsValidate(t *testing.T) {
	for _, c := range All() {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

// Parameter counts must land near the names (transformer blocks dominate).
func TestParamCountsMatchNames(t *testing.T) {
	want := map[string]float64{
		"OPT-30B":      30e9,
		"OPT-66B":      66e9,
		"OPT-175B":     175e9,
		"Qwen2.5-32B":  32e9,
		"Mixtral-8x7B": 46.7e9, // the 8x7B naming counts ~47B total params
		"GLaM-143B":    143e9,
	}
	for _, c := range All() {
		got := float64(c.ParamCount())
		w := want[c.Name]
		rel := math.Abs(got-w) / w
		if rel > 0.15 {
			t.Errorf("%s: param count %.3g vs expected %.3g (%.0f%% off)", c.Name, got, w, rel*100)
		}
	}
}

func TestHeadDims(t *testing.T) {
	want := map[string]int{
		"OPT-30B": 112, "OPT-66B": 128, "OPT-175B": 128,
		"Qwen2.5-32B": 128, "Mixtral-8x7B": 128, "GLaM-143B": 128,
	}
	for _, c := range All() {
		if c.HeadDim() != want[c.Name] {
			t.Errorf("%s: head dim %d, want %d", c.Name, c.HeadDim(), want[c.Name])
		}
	}
}

// Figure 2(a): OPT-175B at bs=16, s=128K has a KV cache near 10 TB, far
// beyond the 512 GB host DRAM.
func TestKVFootprintMatchesFig2(t *testing.T) {
	kv := OPT175B.KVCacheBytes(16, 128*1024)
	tb := float64(kv) / 1e12
	if tb < 8 || tb > 12 {
		t.Errorf("OPT-175B bs=16 s=128K KV = %.2f TB, expected ≈ 10 TB", tb)
	}
	if kv < 512<<30 {
		t.Error("KV cache unexpectedly fits in host DRAM")
	}
}

// KV entry per head per token is 256 bytes for d=128 models (cited in §4.3
// when motivating the 16-step spill interval against 4 KiB pages).
func TestKVEntryBytesPerHead(t *testing.T) {
	c := OPT175B
	perHead := c.KVBytesPerTokenLayer() / int64(c.KVHeads)
	if perHead != 2*128*2 {
		t.Errorf("per-head KV entry = %d bytes, want 512 (K+V) — paper cites 256 per tensor", perHead)
	}
}

func TestKVToXRatio(t *testing.T) {
	if r := OPT175B.KVToXRatio(); r != 2 {
		t.Errorf("MHA KV/X ratio = %v, want 2", r)
	}
	// GQA: KV is smaller than X, so X-cache loses its advantage.
	if r := Qwen2532B.KVToXRatio(); r >= 1 {
		t.Errorf("Qwen GQA KV/X ratio = %v, want < 1", r)
	}
	if r := Mixtral8x7B.KVToXRatio(); r >= 1 {
		t.Errorf("Mixtral GQA KV/X ratio = %v, want < 1", r)
	}
}

// MLPWeightBytesPerLayer returns the FP16 bytes of all FFN weights stored
// for one layer (all experts for MoE layers).
func (c Config) MLPWeightBytesPerLayer(layer int) int64 {
	if c.IsMoE() && (!c.MoEEveryOther || layer%2 == 1) {
		return int64(c.Experts) * c.ffnExpertParams() * BytesPerElem
	}
	return c.ffnExpertParams() * BytesPerElem
}

// TestWeightSumsMatchLayerLoop holds the closed-form weight sums to the
// per-layer loop they replace, on every preset and on synthetic MoE
// configurations: alternate-layer MoE with odd and even layer counts,
// all-layer MoE, and dense models.
func TestWeightSumsMatchLayerLoop(t *testing.T) {
	configs := All()
	for _, layers := range []int{1, 2, 7, 32, 33} {
		for _, everyOther := range []bool{false, true} {
			c := GLaM143B
			c.Name = fmt.Sprintf("moe-%d-every-other-%t", layers, everyOther)
			c.Layers, c.MoEEveryOther = layers, everyOther
			configs = append(configs, c)
		}
		d := OPT30B
		d.Name = fmt.Sprintf("dense-%d", layers)
		d.Layers = layers
		configs = append(configs, d)
	}
	for _, c := range configs {
		var total, active int64
		for l := 0; l < c.Layers; l++ {
			total += c.AttnWeightBytesPerLayer() + c.MLPWeightBytesPerLayer(l)
			active += c.AttnWeightBytesPerLayer() + c.MLPActiveWeightBytesPerLayer(l)
		}
		if got := c.TotalWeightBytes(); got != total {
			t.Errorf("%s: TotalWeightBytes = %d, per-layer loop %d", c.Name, got, total)
		}
		if got := c.ActiveWeightBytesPerStep(); got != active {
			t.Errorf("%s: ActiveWeightBytesPerStep = %d, per-layer loop %d", c.Name, got, active)
		}
	}
}

func TestMoEWeightAccounting(t *testing.T) {
	c := GLaM143B
	// Alternate layers are MoE: stored FFN weights differ between layers.
	dense := c.MLPWeightBytesPerLayer(0)
	moe := c.MLPWeightBytesPerLayer(1)
	if moe != int64(c.Experts)*dense {
		t.Errorf("MoE layer stores %d, want %d× dense layer %d", moe, c.Experts, dense)
	}
	// Active loading only touches 2 experts.
	if got := c.MLPActiveWeightBytesPerLayer(1); got != int64(c.ActiveExperts)*dense {
		t.Errorf("active MoE load %d, want %d", got, int64(c.ActiveExperts)*dense)
	}
	// Per-step active bytes must be far below total weights.
	if c.ActiveWeightBytesPerStep() >= c.TotalWeightBytes() {
		t.Error("active weights not smaller than total for MoE model")
	}
	// Dense models touch all weights every step.
	if OPT66B.ActiveWeightBytesPerStep() != OPT66B.TotalWeightBytes() {
		t.Error("dense model active weights != total")
	}
}

func TestFLOPMonotonicity(t *testing.T) {
	if OPT66B.PrefillFLOPs(2, 16384) <= OPT66B.PrefillFLOPs(1, 16384) {
		t.Error("prefill FLOPs not increasing with batch")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	bad := OPT30B
	bad.DGroup = 2
	if err := bad.Validate(); err == nil {
		t.Error("wrong d_group accepted")
	}
	bad = OPT30B
	bad.Heads = 63
	if err := bad.Validate(); err == nil {
		t.Error("non-dividing heads accepted")
	}
	bad = Mixtral8x7B
	bad.ActiveExperts = 9
	if err := bad.Validate(); err == nil {
		t.Error("too many active experts accepted")
	}
}

func TestByName(t *testing.T) {
	c, err := ByName("OPT-66B")
	if err != nil || c.Layers != 64 {
		t.Errorf("ByName(OPT-66B) = %+v, %v", c, err)
	}
	if _, err := ByName("GPT-5"); err == nil {
		t.Error("unknown model accepted")
	}
}

// The KV:weight ratio drives Figure 12(b)'s observation that MoE/GQA models
// favor FLEX(DRAM) slightly: their KV per weight byte is lower than MHA OPT.
func TestKVToWeightRatioOrdering(t *testing.T) {
	ratio := func(c Config) float64 {
		return float64(c.KVCacheBytes(16, 65536)) / float64(c.TotalWeightBytes())
	}
	if ratio(Qwen2532B) >= ratio(OPT66B) {
		t.Errorf("GQA model KV:weight %.2f not below MHA %.2f", ratio(Qwen2532B), ratio(OPT66B))
	}
}
