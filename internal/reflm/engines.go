package reflm

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/attention"
	"repro/internal/tensor"
)

// Generate runs greedy decoding: the prompt is prefilled token by token
// (functional equivalence, not speed, is the goal here) and outLen tokens
// are generated. engine selects the execution path.
func (m *Model) Generate(prompt []int, outLen int, engine Engine) ([]int, error) {
	if len(prompt) == 0 || outLen < 1 {
		return nil, fmt.Errorf("reflm: empty prompt or non-positive output length")
	}
	for _, t := range prompt {
		if t < 0 || t >= m.P.Vocab {
			return nil, fmt.Errorf("reflm: prompt token %d out of vocabulary", t)
		}
	}
	return engine.run(m, prompt, outLen)
}

// Engine is one functional execution path.
type Engine interface {
	Name() string
	run(m *Model, prompt []int, outLen int) ([]int, error)
}

// --- Reference engine: dense KV cache, exact attention ---

// Reference executes the conventional decode path.
type Reference struct{}

// Name identifies the engine.
func (Reference) Name() string { return "reference" }

func (Reference) run(m *Model, prompt []int, outLen int) ([]int, error) {
	p := m.P
	d := p.HeadDim()
	rope := m.newRoPEs()
	// Per layer, per KV head: K and V caches as growing matrices.
	kc := newCaches(p)
	vc := newCaches(p)

	var out []int
	h := make([]float32, p.Hidden)
	process := func(tok, pos int) int {
		copy(h, m.embed.Row(tok))
		for l := 0; l < p.Layers; l++ {
			q, k, v := m.project(l, h, pos, rope)
			for kh := 0; kh < p.KVHeads; kh++ {
				kc[l][kh] = append(kc[l][kh], append([]float32(nil), headSlice(k, kh, d)...))
				vc[l][kh] = append(vc[l][kh], append([]float32(nil), headSlice(v, kh, d)...))
			}
			attnOut := make([]float32, p.Hidden)
			for qh := 0; qh < p.Heads; qh++ {
				kh := qh / p.DGroup()
				km := rowsToMat(kc[l][kh], d)
				vm := rowsToMat(vc[l][kh], d)
				qm := tensor.FromSlice(1, d, append([]float32(nil), headSlice(q, qh, d)...))
				o := attention.Ref(qm, km, vm, nil)
				copy(headSlice(attnOut, qh, d), o.Row(0))
			}
			h = m.mlpAndResidual(l, h, attnOut)
		}
		return argmax(m.logits(h))
	}

	next := 0
	for i, tok := range prompt {
		next = process(tok, i)
	}
	pos := len(prompt)
	for n := 0; n < outLen; n++ {
		out = append(out, next)
		next = process(next, pos)
		pos++
	}
	return out, nil
}

// --- HILOS engine: X-cache split + accelerator attention + writeback ---

// HILOS executes the paper's functional pipeline.
type HILOS struct {
	// Alpha is the X-cache fraction of KV-head groups (rounded to whole
	// heads). 0 disables the X path.
	Alpha float64
	// SpillInterval is the delayed-writeback interval c; buffered entries
	// reach the accelerator as host-precomputed partial scores until
	// spilled. 0 disables buffering (naive commit every step).
	SpillInterval int
}

// Name identifies the engine.
func (e HILOS) Name() string {
	return fmt.Sprintf("hilos(alpha=%.2f,c=%d)", e.Alpha, e.SpillInterval)
}

func (e HILOS) run(m *Model, prompt []int, outLen int) ([]int, error) {
	p := m.P
	d := p.HeadDim()
	rope := m.newRoPEs()

	// Split KV-head groups: the first nX are X-cache (GPU-regenerated),
	// the rest live on the "devices" (§4.2 partitions batch×head, never
	// sequence).
	nX, _, err := splitHeads(p.KVHeads, e.Alpha)
	if err != nil {
		return nil, err
	}

	acc, err := accel.New(accel.Config{DGroup: p.DGroup(), HeadDim: d})
	if err != nil {
		return nil, err
	}

	// X-cache: per layer, the pre-projection activations (shared by all
	// X heads of the layer).
	xCache := make([][][]float32, p.Layers)
	// Device-resident committed KV, per layer per device KV head.
	kc := newCaches(p)
	vc := newCaches(p)
	// Host writeback buffers (uncommitted recent entries).
	kBuf := newCaches(p)
	vBuf := newCaches(p)
	buffered := 0

	var out []int
	h := make([]float32, p.Hidden)
	process := func(tok, pos int) (int, error) {
		copy(h, m.embed.Row(tok))
		for l := 0; l < p.Layers; l++ {
			// The X-cache stores the pre-projection activation.
			xCache[l] = append(xCache[l], append([]float32(nil), h...))
			q, k, v := m.project(l, h, pos, rope)
			// Device heads: stage the new entries in host buffers.
			for kh := nX; kh < p.KVHeads; kh++ {
				kBuf[l][kh] = append(kBuf[l][kh], append([]float32(nil), headSlice(k, kh, d)...))
				vBuf[l][kh] = append(vBuf[l][kh], append([]float32(nil), headSlice(v, kh, d)...))
			}

			attnOut := make([]float32, p.Hidden)
			// X-cache heads: regenerate K/V from X on the GPU and attend.
			for kh := 0; kh < nX; kh++ {
				m.xHeadAttention(l, kh, q, xCache[l], rope, attnOut)
			}
			// Device heads: accelerator over committed KV plus host
			// partial scores for the buffered tail (Fig. 6b).
			for kh := nX; kh < p.KVHeads; kh++ {
				if err := m.deviceHeadAttention(acc, l, kh, q, kc, vc, kBuf, vBuf, attnOut); err != nil {
					return 0, err
				}
			}
			h = m.mlpAndResidual(l, h, attnOut)
		}

		// Spill: commit buffered entries to the device cache every c steps
		// (and on c == 0, immediately — the naive path).
		buffered++
		if e.SpillInterval == 0 || buffered >= e.SpillInterval {
			for l := 0; l < p.Layers; l++ {
				for kh := nX; kh < p.KVHeads; kh++ {
					kc[l][kh] = append(kc[l][kh], kBuf[l][kh]...)
					vc[l][kh] = append(vc[l][kh], vBuf[l][kh]...)
					kBuf[l][kh] = nil
					vBuf[l][kh] = nil
				}
			}
			buffered = 0
		}
		return argmax(m.logits(h)), nil
	}

	next := 0
	for i, tok := range prompt {
		n, err := process(tok, i)
		if err != nil {
			return nil, err
		}
		next = n
	}
	pos := len(prompt)
	for n := 0; n < outLen; n++ {
		out = append(out, next)
		nn, err := process(next, pos)
		if err != nil {
			return nil, err
		}
		next = nn
		pos++
	}
	return out, nil
}

// splitHeads partitions the batch×head dimension for cooperative execution:
// given n total (batch, head) pairs and an X-cache ratio alpha, it returns
// how many pairs the GPU handles via X-cache (nX) and how many stay on the
// NSP devices (nKV). alpha partitions batch and head dimensions, never the
// sequence dimension (§4.2).
func splitHeads(n int, alpha float64) (nX, nKV int, err error) {
	if alpha < 0 || alpha > 1 {
		return 0, 0, fmt.Errorf("reflm: alpha %v out of [0,1]", alpha)
	}
	nX = int(float64(float64(n)*alpha) + 0.5)
	if nX > n {
		nX = n
	}
	return nX, n - nX, nil
}

// regenerateKV recomputes K and V for one X-cache KV head from the stored
// activations xs of layer l (the cooperative X-cache, §4.2): the column
// blocks of Wk/Wv for the head, RoPE re-applied at each original position,
// FP16 storage rounding. The result equals the K/V project stored, bit for
// bit.
func (m *Model) regenerateKV(l, kh int, xs [][]float32, rope []*attention.RoPE) (k, v tensor.Mat) {
	p := m.P
	d := p.HeadDim()
	lw := m.layers[l]
	xm := rowsToMat(xs, p.Hidden)
	k = tensor.MatMul(xm, colBlock(lw.wk, kh, d)).RoundFP16()
	v = tensor.MatMul(xm, colBlock(lw.wv, kh, d)).RoundFP16()
	if p.UseRoPE {
		for i := 0; i < k.Rows; i++ {
			rope[l].Apply(k.Row(i), i)
		}
		k.RoundFP16()
	}
	return k, v
}

// xHeadAttention regenerates K/V for one X-cache KV head and attends with
// the blocked GPU kernel.
func (m *Model) xHeadAttention(l, kh int, q []float32, xs [][]float32, rope []*attention.RoPE, attnOut []float32) {
	p := m.P
	d := p.HeadDim()
	k, v := m.regenerateKV(l, kh, xs, rope)
	qm := tensor.New(p.DGroup(), d)
	for g := 0; g < p.DGroup(); g++ {
		copy(qm.Row(g), headSlice(q, kh*p.DGroup()+g, d))
	}
	o := attention.Blocked(qm, k, v, nil, accel.BlockTokens)
	for g := 0; g < p.DGroup(); g++ {
		copy(headSlice(attnOut, kh*p.DGroup()+g, d), o.Row(g))
	}
}

// deviceHeadAttention runs the accelerator for one device KV head: blocked
// attention over the committed cache merged with host-precomputed partial
// scores over the writeback buffer.
func (m *Model) deviceHeadAttention(acc *accel.Accelerator, l, kh int, q []float32,
	kc, vc, kBuf, vBuf [][]rowCache, attnOut []float32) error {

	p := m.P
	d := p.HeadDim()
	km := rowsToMat(kc[l][kh], d)
	vm := rowsToMat(vc[l][kh], d)
	kb := rowsToMat(kBuf[l][kh], d)
	vb := rowsToMat(vBuf[l][kh], d)

	qm := tensor.New(p.DGroup(), d)
	for g := 0; g < p.DGroup(); g++ {
		copy(qm.Row(g), headSlice(q, kh*p.DGroup()+g, d))
	}
	var hostScores tensor.Mat
	if kb.Rows > 0 {
		hostScores = attention.Scores(qm, kb)
	}
	o, err := acc.Attention(qm, km, vm, nil, hostScores, vb)
	if err != nil {
		return err
	}
	for g := 0; g < p.DGroup(); g++ {
		copy(headSlice(attnOut, kh*p.DGroup()+g, d), o.Row(g))
	}
	return nil
}

// --- helpers ---

// rowCache is a growing list of d-length cache rows for one KV head.
type rowCache [][]float32

// newCaches allocates [layers][kvHeads] empty row caches.
func newCaches(p Params) [][]rowCache {
	c := make([][]rowCache, p.Layers)
	for l := range c {
		c[l] = make([]rowCache, p.KVHeads)
	}
	return c
}

// rowsToMat copies a row list into a matrix (rows may be empty).
func rowsToMat(rows [][]float32, cols int) tensor.Mat {
	m := tensor.New(len(rows), cols)
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// colBlock returns columns [h·d, (h+1)·d) of m as a new matrix.
func colBlock(m tensor.Mat, h, d int) tensor.Mat {
	out := tensor.New(m.Rows, d)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[h*d:(h+1)*d])
	}
	return out
}
