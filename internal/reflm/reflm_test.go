package reflm

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

func TestParamsValidate(t *testing.T) {
	if err := smallParams(true).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := smallParams(false)
	bad.Heads = 3
	if err := bad.Validate(); err == nil {
		t.Error("non-dividing heads accepted")
	}
	bad = smallParams(true)
	bad.Hidden = 68 // head dim 17, odd: RoPE impossible
	bad.Heads = 4
	if err := bad.Validate(); err == nil {
		t.Error("odd head dim with RoPE accepted")
	}
	bad = gqaParams()
	bad.KVHeads = 3
	if err := bad.Validate(); err == nil {
		t.Error("non-dividing KV heads accepted")
	}
}

func TestReferenceDeterministic(t *testing.T) {
	m, err := NewModel(smallParams(false), 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	prompt := randPrompt(rng, 12, m.P.Vocab)
	a, err := m.Generate(prompt, 8, Reference{})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := m.Generate(prompt, 8, Reference{})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reference decode not deterministic at %d", i)
		}
	}
	if len(a) != 8 {
		t.Fatalf("generated %d tokens, want 8", len(a))
	}
}

// The headline integration property: the full HILOS functional pipeline —
// X-cache regeneration, accelerator attention, delayed writeback — decodes
// the same greedy token stream as the reference engine at every Point.
func TestHILOSMatchesReference(t *testing.T) {
	for _, pt := range Points {
		t.Run(pt.Name, func(t *testing.T) {
			if err := pt.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The X-cache path is exact: K/V regenerated from the stored activations
// (column-block projection, RoPE re-applied at each original position, FP16
// rounding) equal the K/V project stored, bit for bit, for every KV head.
func TestXCacheRegeneratesStoredKV(t *testing.T) {
	for _, p := range []Params{smallParams(true), smallParams(false), gqaParams()} {
		m, err := NewModel(p, 3)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		rope := m.newRoPEs()
		d := p.HeadDim()
		for l := 0; l < p.Layers; l++ {
			var xs, ks, vs [][]float32
			for pos := 0; pos < 12; pos++ {
				h := tensor.RandMat(rng, 1, p.Hidden, 1).Row(0)
				_, k, v := m.project(l, h, pos, rope)
				xs, ks, vs = append(xs, h), append(ks, k), append(vs, v)
			}
			for kh := 0; kh < p.KVHeads; kh++ {
				k, v := m.regenerateKV(l, kh, xs, rope)
				for pos := range xs {
					if !slices.Equal(k.Row(pos), headSlice(ks[pos], kh, d)) || !slices.Equal(v.Row(pos), headSlice(vs[pos], kh, d)) {
						t.Fatalf("%+v layer %d KV head %d position %d: regenerated K/V differ from stored", p, l, kh, pos)
					}
				}
			}
		}
	}
}

func TestSplitHeads(t *testing.T) {
	nX, nKV, err := splitHeads(1536, 0.5) // bs=16 × 96 heads, α=50%
	if err != nil || nX != 768 || nKV != 768 {
		t.Errorf("splitHeads(1536, 0.5) = %d, %d, %v", nX, nKV, err)
	}
	if _, _, err := splitHeads(10, 1.5); err == nil {
		t.Error("alpha > 1 not rejected")
	}
	nX, nKV, _ = splitHeads(10, 0)
	if nX != 0 || nKV != 10 {
		t.Errorf("alpha=0 split = %d, %d", nX, nKV)
	}
}

// Several seeds: the equivalence is not an artifact of one weight draw.
func TestHILOSMatchesReferenceAcrossSeeds(t *testing.T) {
	for seed := int64(20); seed < 25; seed++ {
		m, err := NewModel(smallParams(true), seed)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed + 100))
		prompt := randPrompt(rng, 8, m.P.Vocab)
		want, err := m.Generate(prompt, 6, Reference{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Generate(prompt, 6, HILOS{Alpha: 0.5, SpillInterval: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d token %d: hilos=%v reference=%v", seed, i, got, want)
			}
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	m, _ := NewModel(smallParams(false), 1)
	if _, err := m.Generate(nil, 4, Reference{}); err == nil {
		t.Error("empty prompt accepted")
	}
	if _, err := m.Generate([]int{1}, 0, Reference{}); err == nil {
		t.Error("zero output length accepted")
	}
	if _, err := m.Generate([]int{999}, 4, Reference{}); err == nil {
		t.Error("out-of-vocab token accepted")
	}
	if _, err := m.Generate([]int{1}, 2, HILOS{Alpha: 2}); err == nil {
		t.Error("alpha > 1 accepted")
	}
}

func TestEngineNames(t *testing.T) {
	if (Reference{}).Name() != "reference" {
		t.Error("reference name")
	}
	if (HILOS{Alpha: 0.5, SpillInterval: 4}).Name() != "hilos(alpha=0.50,c=4)" {
		t.Errorf("hilos name = %q", HILOS{Alpha: 0.5, SpillInterval: 4}.Name())
	}
}

func TestNewModelValidates(t *testing.T) {
	bad := smallParams(false)
	bad.Vocab = 1
	if _, err := NewModel(bad, 1); err == nil {
		t.Error("vocab=1 accepted")
	}
}
