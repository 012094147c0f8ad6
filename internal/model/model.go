// Package model defines the LLM configurations evaluated in the paper
// (Table 2) and the derived size/compute arithmetic used everywhere else:
// weight footprints, KV-cache and X-cache bytes per token, and per-layer
// FLOP counts for the projection, attention and MLP stages.
//
// All storage sizes assume FP16 (2 bytes/element), the paper's default.
package model

import "fmt"

// BytesPerElem is the storage width of model tensors (FP16).
const BytesPerElem = 2

// Config describes a decoder-only transformer, following Table 2.
type Config struct {
	Name         string
	Layers       int
	Hidden       int
	Intermediate int
	Heads        int // query heads
	KVHeads      int // key/value heads (== Heads for MHA)
	DGroup       int // query heads per KV head (GQA group size)

	// Mixture-of-experts parameters; Experts == 0 means dense.
	Experts       int
	ActiveExperts int
	// MoEEveryOther marks architectures (GLaM) where only alternate layers
	// are MoE; the rest use a dense FFN.
	MoEEveryOther bool

	// MLPMatrices is the number of FFN weight matrices per expert:
	// 2 for GELU-style (OPT, GLaM), 3 for SwiGLU (Qwen, Mixtral).
	MLPMatrices int
}

// Validate reports configuration inconsistencies.
func (c Config) Validate() error {
	switch {
	case c.Layers <= 0 || c.Hidden <= 0 || c.Heads <= 0 || c.KVHeads <= 0:
		return fmt.Errorf("model %s: non-positive dimensions", c.Name)
	case c.Hidden%c.Heads != 0:
		return fmt.Errorf("model %s: hidden %d not divisible by heads %d", c.Name, c.Hidden, c.Heads)
	case c.Heads%c.KVHeads != 0:
		return fmt.Errorf("model %s: heads %d not divisible by KV heads %d", c.Name, c.Heads, c.KVHeads)
	case c.DGroup != c.Heads/c.KVHeads:
		return fmt.Errorf("model %s: d_group %d != heads/KV heads %d", c.Name, c.DGroup, c.Heads/c.KVHeads)
	case c.MLPMatrices != 2 && c.MLPMatrices != 3:
		return fmt.Errorf("model %s: MLPMatrices must be 2 or 3", c.Name)
	case c.Experts > 0 && (c.ActiveExperts <= 0 || c.ActiveExperts > c.Experts):
		return fmt.Errorf("model %s: active experts %d out of range", c.Name, c.ActiveExperts)
	}
	return nil
}

// HeadDim returns the per-head hidden dimension d.
func (c Config) HeadDim() int { return c.Hidden / c.Heads }

// IsMoE reports whether the model has mixture-of-experts FFN layers.
func (c Config) IsMoE() bool { return c.Experts > 0 }

// moeLayers returns how many of the layers are MoE layers.
func (c Config) moeLayers() int {
	if !c.IsMoE() {
		return 0
	}
	if c.MoEEveryOther {
		return c.Layers / 2
	}
	return c.Layers
}

// AttnWeightBytesPerLayer returns the FP16 bytes of the attention projection
// weights (Wq, Wk, Wv, Wo) of one layer.
func (c Config) AttnWeightBytesPerLayer() int64 {
	h := int64(c.Hidden)
	kvDim := int64(c.KVHeads * c.HeadDim())
	params := h*h + 2*h*kvDim + h*h // Wq + (Wk,Wv) + Wo
	return params * BytesPerElem
}

// ffnExpertParams returns the parameter count of a single FFN expert.
func (c Config) ffnExpertParams() int64 {
	return int64(c.MLPMatrices) * int64(c.Hidden) * int64(c.Intermediate)
}

// MLPWeightBytesPerLayer returns the FP16 bytes of all FFN weights stored
// for one layer (all experts for MoE layers).
func (c Config) MLPWeightBytesPerLayer(layer int) int64 {
	if c.IsMoE() && (!c.MoEEveryOther || layer%2 == 1) {
		return int64(c.Experts) * c.ffnExpertParams() * BytesPerElem
	}
	return c.ffnExpertParams() * BytesPerElem
}

// MLPActiveWeightBytesPerLayer returns the FFN weight bytes that must be
// loaded to the GPU per decoding step for one layer (active experts only).
func (c Config) MLPActiveWeightBytesPerLayer(layer int) int64 {
	if c.IsMoE() && (!c.MoEEveryOther || layer%2 == 1) {
		return int64(c.ActiveExperts) * c.ffnExpertParams() * BytesPerElem
	}
	return c.ffnExpertParams() * BytesPerElem
}

// TotalWeightBytes returns the FP16 footprint of all transformer weights.
func (c Config) TotalWeightBytes() int64 {
	var total int64
	for l := 0; l < c.Layers; l++ {
		total += c.AttnWeightBytesPerLayer() + c.MLPWeightBytesPerLayer(l)
	}
	return total
}

// ActiveWeightBytesPerStep returns the weight bytes touched per decoding
// step across all layers (MoE loads only active experts).
func (c Config) ActiveWeightBytesPerStep() int64 {
	var total int64
	for l := 0; l < c.Layers; l++ {
		total += c.AttnWeightBytesPerLayer() + c.MLPActiveWeightBytesPerLayer(l)
	}
	return total
}

// ParamCount returns the approximate parameter count (transformer blocks
// only; embeddings excluded, matching how model names are usually derived).
func (c Config) ParamCount() int64 { return c.TotalWeightBytes() / BytesPerElem }

// KVBytesPerTokenLayer returns the K+V cache bytes for one token in one
// layer for a single sequence.
func (c Config) KVBytesPerTokenLayer() int64 {
	return 2 * int64(c.KVHeads*c.HeadDim()) * BytesPerElem
}

// XBytesPerTokenLayer returns the pre-projection activation (X-cache) bytes
// for one token in one layer for a single sequence.
func (c Config) XBytesPerTokenLayer() int64 {
	return int64(c.Hidden) * BytesPerElem
}

// KVToXRatio returns ρ = S_KV / S_X. For MHA ρ = 2 (X-cache halves storage,
// §4.2); for GQA ρ can fall below 1, in which case the cache scheduler
// disables X-cache.
func (c Config) KVToXRatio() float64 {
	return float64(c.KVBytesPerTokenLayer()) / float64(c.XBytesPerTokenLayer())
}

// KVCacheBytes returns the total KV footprint for batch bs at context s.
func (c Config) KVCacheBytes(bs, s int) int64 {
	return int64(bs) * int64(s) * int64(c.Layers) * c.KVBytesPerTokenLayer()
}

// ActivationBytes approximates per-step intermediate activation residency
// (hidden + intermediate states for the live batch).
func (c Config) ActivationBytes(bs int) int64 {
	return int64(bs) * int64(c.Hidden+c.Intermediate) * BytesPerElem * 2
}

// --- FLOP counts (multiply-accumulate = 2 FLOPs) ---

// ProjFLOPsPerTokenLayer returns QKV+output projection FLOPs for one token.
func (c Config) ProjFLOPsPerTokenLayer() float64 {
	h := float64(c.Hidden)
	kvDim := float64(c.KVHeads * c.HeadDim())
	return 2 * (h*h + 2*h*kvDim + h*h)
}

// MLPFLOPsPerTokenLayer returns FFN FLOPs for one token in one layer
// (active experts for MoE).
func (c Config) MLPFLOPsPerTokenLayer(layer int) float64 {
	e := 1.0
	if c.IsMoE() && (!c.MoEEveryOther || layer%2 == 1) {
		e = float64(c.ActiveExperts)
	}
	return e * 2 * float64(c.MLPMatrices) * float64(c.Hidden) * float64(c.Intermediate)
}

// AttnFLOPsPerTokenLayer returns decode attention FLOPs for one new token
// attending to s cached tokens in one layer: QKᵀ plus score·V.
func (c Config) AttnFLOPsPerTokenLayer(s int) float64 {
	return 4 * float64(c.Heads*c.HeadDim()) * float64(s)
}

// DecodeFLOPsPerToken returns all FLOPs to decode one token at context s.
func (c Config) DecodeFLOPsPerToken(s int) float64 {
	var f float64
	for l := 0; l < c.Layers; l++ {
		f += c.ProjFLOPsPerTokenLayer() + c.MLPFLOPsPerTokenLayer(l) + c.AttnFLOPsPerTokenLayer(s)
	}
	return f
}

// PrefillFLOPs returns the FLOPs to prefill a batch of bs sequences of
// length s (quadratic attention term included).
func (c Config) PrefillFLOPs(bs, s int) float64 {
	var f float64
	for l := 0; l < c.Layers; l++ {
		linear := (c.ProjFLOPsPerTokenLayer() + c.MLPFLOPsPerTokenLayer(l)) * float64(s)
		attn := 2 * float64(c.Heads*c.HeadDim()) * float64(s) * float64(s) // causal ≈ s²/2 each for QKᵀ and SV
		f += linear + attn
	}
	return f * float64(bs)
}
