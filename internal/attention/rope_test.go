package attention

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestRoPEValidation(t *testing.T) {
	if _, err := NewRoPE(7, 10000); err == nil {
		t.Error("odd dim accepted")
	}
	if _, err := NewRoPE(0, 10000); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := NewRoPE(8, 1); err == nil {
		t.Error("base 1 accepted")
	}
}

// Rotation preserves the vector norm (it is a block-diagonal rotation).
func TestRoPENormPreserving(t *testing.T) {
	r, err := NewRoPE(16, 10000)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for pos := 0; pos < 50; pos += 7 {
		v := make([]float32, 16)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		var before float64
		for _, x := range v {
			before += float64(x) * float64(x)
		}
		r.Apply(v, pos)
		var after float64
		for _, x := range v {
			after += float64(x) * float64(x)
		}
		if math.Abs(before-after) > 1e-4*before {
			t.Errorf("pos %d: norm changed %v -> %v", pos, before, after)
		}
	}
}

// Position 0 is the identity rotation.
func TestRoPEPositionZeroIdentity(t *testing.T) {
	r, _ := NewRoPE(8, 10000)
	v := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	want := append([]float32(nil), v...)
	r.Apply(v, 0)
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("position 0 not identity at %d", i)
		}
	}
}

// The defining property: q·k after RoPE depends only on the relative
// position — rotating both by the same offset leaves the score unchanged.
func TestRoPERelativePositionInvariance(t *testing.T) {
	r, _ := NewRoPE(32, 10000)
	rng := rand.New(rand.NewSource(2))
	q := make([]float32, 32)
	k := make([]float32, 32)
	for i := range q {
		q[i] = float32(rng.NormFloat64())
		k[i] = float32(rng.NormFloat64())
	}
	score := func(pq, pk int) float64 {
		qq := append([]float32(nil), q...)
		kk := append([]float32(nil), k...)
		r.Apply(qq, pq)
		r.Apply(kk, pk)
		return float64(tensor.Dot(qq, kk))
	}
	base := score(10, 3)
	for _, off := range []int{1, 17, 100} {
		if got := score(10+off, 3+off); math.Abs(got-base) > 1e-3 {
			t.Errorf("offset %d: score %v vs %v (relative invariance violated)", off, got, base)
		}
	}
}

// X-cache regeneration re-applies RoPE at the original token positions and
// must reproduce the stored rotated keys exactly.
func TestRoPERegenerationMatchesStored(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d, s, h := 16, 40, 32
	r, _ := NewRoPE(d, 10000)
	x := tensor.RandMat(rng, s, h, 1).RoundFP16()
	wk := tensor.RandMat(rng, h, d, 0.3).RoundFP16()

	// Stored path: project then rotate per position, quantize to FP16.
	stored := tensor.MatMul(x, wk)
	for i := 0; i < s; i++ {
		r.Apply(stored.Row(i), i)
	}
	stored.RoundFP16()

	// Regeneration path (same arithmetic, fresh RoPE instance to prove the
	// tables are deterministic).
	r2, _ := NewRoPE(d, 10000)
	regen := tensor.MatMul(x, wk)
	for i := 0; i < s; i++ {
		r2.Apply(regen.Row(i), i)
	}
	regen.RoundFP16()

	if diff := tensor.MaxAbsDiff(stored, regen); diff != 0 {
		t.Errorf("regenerated RoPE keys differ from stored by %v (must be exact)", diff)
	}
}

func TestRoPETableCaching(t *testing.T) {
	r, _ := NewRoPE(8, 10000)
	v := make([]float32, 8)
	r.Apply(v, 9)
	if got := len(r.cos); got != 10 {
		t.Errorf("cached positions = %d, want 10", got)
	}
	r.Apply(v, 3) // must not shrink or extend
	if got := len(r.cos); got != 10 {
		t.Errorf("cached positions after reuse = %d, want 10", got)
	}
}

func TestRoPEApplyPanics(t *testing.T) {
	r, _ := NewRoPE(8, 10000)
	defer func() {
		if recover() == nil {
			t.Error("wrong-length vector accepted")
		}
	}()
	r.Apply(make([]float32, 4), 0)
}
