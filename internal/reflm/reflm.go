// Package reflm is the functional integration layer: a small decoder-only
// transformer executed end to end through two engines —
//
//   - Reference: conventional decode with a dense KV cache and exact
//     attention; and
//   - HILOS: the paper's full functional pipeline — (batch, head) groups
//     split by the X-cache ratio α (§4.2), the KV portion served by the
//     blocked accelerator with delayed writeback buffers and host-side
//     partial-score precompute (§4.3), the X portion regenerated from
//     stored activations (with RoPE re-applied at original positions) and
//     attended on the "GPU".
//
// Both engines must produce the same greedy token stream; this is the
// repository's analogue of the paper's lm-eval-harness-integrated
// functional verification (§5.1). hilos-verify runs it at every Point.
package reflm

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/attention"
	"repro/internal/tensor"
)

// Params describes the miniature model architecture.
type Params struct {
	Layers  int
	Hidden  int
	Heads   int
	KVHeads int
	FFN     int
	Vocab   int
	UseRoPE bool
}

// Validate reports inconsistent parameters.
func (p Params) Validate() error {
	switch {
	case p.Layers < 1 || p.Hidden < 1 || p.Heads < 1 || p.KVHeads < 1 || p.FFN < 1 || p.Vocab < 2:
		return fmt.Errorf("reflm: non-positive parameters %+v", p)
	case p.Hidden%p.Heads != 0:
		return fmt.Errorf("reflm: hidden %d not divisible by heads %d", p.Hidden, p.Heads)
	case p.Heads%p.KVHeads != 0:
		return fmt.Errorf("reflm: heads %d not divisible by KV heads %d", p.Heads, p.KVHeads)
	case p.UseRoPE && (p.Hidden/p.Heads)%2 != 0:
		return fmt.Errorf("reflm: RoPE needs an even head dim, got %d", p.Hidden/p.Heads)
	}
	return nil
}

// HeadDim returns the per-head dimension.
func (p Params) HeadDim() int { return p.Hidden / p.Heads }

// DGroup returns query heads per KV head.
func (p Params) DGroup() int { return p.Heads / p.KVHeads }

// layerWeights holds one transformer block's parameters. Per-head
// projection slices view into the full matrices.
type layerWeights struct {
	wq, wk, wv tensor.Mat // hidden × (heads·d) / (kvHeads·d)
	wo         tensor.Mat // hidden × hidden
	w1         tensor.Mat // hidden × ffn
	w2         tensor.Mat // ffn × hidden
}

// Model bundles parameters and weights.
type Model struct {
	P      Params
	embed  tensor.Mat // vocab × hidden
	layers []layerWeights
}

// NewModel draws FP16-quantized random weights.
func NewModel(p Params, seed int64) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	sigma := 1 / math.Sqrt(float64(p.Hidden))
	m := &Model{P: p, embed: tensor.RandMat(rng, p.Vocab, p.Hidden, 1).RoundFP16()}
	kvDim := p.KVHeads * p.HeadDim()
	for l := 0; l < p.Layers; l++ {
		m.layers = append(m.layers, layerWeights{
			wq: tensor.RandMat(rng, p.Hidden, p.Hidden, sigma).RoundFP16(),
			wk: tensor.RandMat(rng, p.Hidden, kvDim, sigma).RoundFP16(),
			wv: tensor.RandMat(rng, p.Hidden, kvDim, sigma).RoundFP16(),
			wo: tensor.RandMat(rng, p.Hidden, p.Hidden, sigma).RoundFP16(),
			w1: tensor.RandMat(rng, p.Hidden, p.FFN, sigma).RoundFP16(),
			w2: tensor.RandMat(rng, p.FFN, p.Hidden, sigma).RoundFP16(),
		})
	}
	return m, nil
}

// headSlice returns the column block of a projected row for head h of dim d.
func headSlice(row []float32, h, d int) []float32 { return row[h*d : (h+1)*d] }

// gelu is the tanh-approximation GELU used by the FFN.
func gelu(x float32) float32 {
	const c = 0.7978845608028654 // sqrt(2/pi)
	x64 := float64(x)
	return float32(0.5 * x64 * (1 + math.Tanh(c*(x64+float64(0.044715*x64*x64*x64)))))
}

// project computes the q/k/v rows for one input row, applying RoPE at pos.
func (m *Model) project(l int, h []float32, pos int, rope []*attention.RoPE) (q, k, v []float32) {
	lw := m.layers[l]
	hm := tensor.FromSlice(1, len(h), h)
	q = tensor.MatMul(hm, lw.wq).RoundFP16().Row(0)
	k = tensor.MatMul(hm, lw.wk).RoundFP16().Row(0)
	v = tensor.MatMul(hm, lw.wv).RoundFP16().Row(0)
	if m.P.UseRoPE {
		d := m.P.HeadDim()
		for hd := 0; hd < m.P.Heads; hd++ {
			rope[l].Apply(headSlice(q, hd, d), pos)
		}
		for hd := 0; hd < m.P.KVHeads; hd++ {
			rope[l].Apply(headSlice(k, hd, d), pos)
		}
		// RoPE rotates in FP32; the stored copy is FP16.
		tensor.FromSlice(1, len(q), q).RoundFP16()
		tensor.FromSlice(1, len(k), k).RoundFP16()
	}
	return q, k, v
}

// mlpAndResidual finishes a layer: output projection of the concatenated
// attention heads, residual, FFN, residual.
func (m *Model) mlpAndResidual(l int, h, attnOut []float32) []float32 {
	lw := m.layers[l]
	ao := tensor.MatMul(tensor.FromSlice(1, len(attnOut), attnOut), lw.wo).RoundFP16()
	mid := make([]float32, m.P.Hidden)
	for i := range mid {
		mid[i] = h[i] + ao.Row(0)[i]
	}
	up := tensor.MatMul(tensor.FromSlice(1, len(mid), mid), lw.w1).RoundFP16()
	for i := range up.Data {
		up.Data[i] = gelu(up.Data[i])
	}
	down := tensor.MatMul(up, lw.w2).RoundFP16()
	out := make([]float32, m.P.Hidden)
	for i := range out {
		out[i] = mid[i] + down.Row(0)[i]
	}
	return out
}

// logits projects a hidden state onto the vocabulary (tied embeddings).
func (m *Model) logits(h []float32) []float32 {
	return tensor.MatVec(m.embed, h)
}

// argmax returns the greedy token.
func argmax(logits []float32) int {
	best, bi := float32(math.Inf(-1)), 0
	for i, v := range logits {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// newRoPEs returns per-layer RoPE operators (nil slice if disabled).
func (m *Model) newRoPEs() []*attention.RoPE {
	if !m.P.UseRoPE {
		return make([]*attention.RoPE, m.P.Layers)
	}
	out := make([]*attention.RoPE, m.P.Layers)
	for l := range out {
		r, err := attention.NewRoPE(m.P.HeadDim(), 10000)
		if err != nil {
			panic(err) // Params.Validate guarantees an even head dim
		}
		out[l] = r
	}
	return out
}

// --- the functional check ---

// Point is one configuration of the functional check: a model shape and
// the HILOS settings whose greedy tokens must equal the Reference's.
type Point struct {
	Name   string
	Params Params
	Engine HILOS
}

// Points covers each technique alone and together: plain ANS, delayed
// writeback, half and full X-cache, X-cache with RoPE re-applied, and GQA.
var Points = []Point{
	{"ans-only", smallParams(false), HILOS{Alpha: 0, SpillInterval: 0}},
	{"writeback", smallParams(false), HILOS{Alpha: 0, SpillInterval: 4}},
	{"xcache-half", smallParams(false), HILOS{Alpha: 0.5, SpillInterval: 4}},
	{"xcache-full", smallParams(false), HILOS{Alpha: 1, SpillInterval: 4}},
	{"rope-mix", smallParams(true), HILOS{Alpha: 0.5, SpillInterval: 4}},
	{"gqa", gqaParams(), HILOS{Alpha: 0.5, SpillInterval: 3}},
}

// smallParams is the check's multi-head model: 2 layers, 4 heads of 16.
func smallParams(useRoPE bool) Params {
	return Params{
		Layers: 2, Hidden: 64, Heads: 4, KVHeads: 4, FFN: 128, Vocab: 50,
		UseRoPE: useRoPE,
	}
}

// gqaParams is smallParams with RoPE and two query heads per KV head.
func gqaParams() Params {
	return Params{
		Layers: 2, Hidden: 64, Heads: 4, KVHeads: 2, FFN: 128, Vocab: 50,
		UseRoPE: true,
	}
}

// randPrompt draws n tokens uniformly from the vocabulary.
func randPrompt(rng *rand.Rand, n, vocab int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = rng.Intn(vocab)
	}
	return p
}

// Check draws the point's model (seed 7), decodes 10 tokens after a fixed
// 10-token prompt with the Reference and with the point's HILOS engine, and
// reports the first token where the two streams differ.
func (pt Point) Check() error {
	m, err := NewModel(pt.Params, 7)
	if err != nil {
		return err
	}
	prompt := randPrompt(rand.New(rand.NewSource(11)), 10, m.P.Vocab)
	want, err := m.Generate(prompt, 10, Reference{})
	if err != nil {
		return err
	}
	got, err := m.Generate(prompt, 10, pt.Engine)
	if err != nil {
		return err
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("token %d differs: %s %v, %s %v",
				i, pt.Engine.Name(), got, Reference{}.Name(), want)
		}
	}
	return nil
}
