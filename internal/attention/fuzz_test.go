package attention

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// FuzzTwoPassSoftmax checks the Algorithm 1 implementation against the
// three-pass reference on fuzzed shapes and block sizes.
func FuzzTwoPassSoftmax(f *testing.F) {
	f.Add(int64(1), 64, 16)
	f.Add(int64(2), 1, 1)
	f.Add(int64(3), 257, 128)
	f.Fuzz(func(t *testing.T, seed int64, n, bs int) {
		if n < 1 || n > 2048 || bs < 1 || bs > 4096 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.NormFloat64() * 10)
		}
		got := SoftmaxTwoPass(x, nil, bs)
		want := SoftmaxRef(x)
		var sum float64
		for i := range got {
			if d := math.Abs(float64(got[i]) - float64(want[i])); d > 1e-5 {
				t.Fatalf("n=%d bs=%d: element %d differs by %v", n, bs, i, d)
			}
			sum += float64(got[i])
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Fatalf("softmax sums to %v", sum)
		}
	})
}

// FuzzPartialMerge checks that splitting attention at any cut point and
// merging partials reproduces whole-range attention.
func FuzzPartialMerge(f *testing.F) {
	f.Add(int64(1), 100, 37)
	f.Add(int64(2), 2, 1)
	f.Fuzz(func(t *testing.T, seed int64, s, cut int) {
		if s < 2 || s > 512 || cut < 1 || cut >= s {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		q := tensor.RandMat(rng, 1, 16, 1)
		k := tensor.RandMat(rng, s, 16, 1)
		v := tensor.RandMat(rng, s, 16, 1)
		whole := partialOverRange(q.Row(0), k, v, nil, 0)
		a := partialOverRange(q.Row(0), k.SliceRows(0, cut), v.SliceRows(0, cut), nil, 0)
		b := partialOverRange(q.Row(0), k.SliceRows(cut, s), v.SliceRows(cut, s), nil, cut)
		a.Merge(b)
		fa, fw := a.Finalize(), whole.Finalize()
		for i := range fa {
			if d := math.Abs(float64(fa[i]) - float64(fw[i])); d > 1e-3 {
				t.Fatalf("s=%d cut=%d: merged differs at %d by %v", s, cut, i, d)
			}
		}
	})
}
