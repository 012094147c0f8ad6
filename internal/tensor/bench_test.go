package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// dotInputs returns the two head-dimension-scale vectors the Dot pair and
// TestDotSpeedup share.
func dotInputs() (x, y []float32) {
	rng := rand.New(rand.NewSource(5))
	const n = 4096
	return randVec(rng, n), randVec(rng, n)
}

// BenchmarkDot vs BenchmarkDotRef is the striped-lane pair: the 8-lane
// striped Dot against the scalar reference on the same vectors.
func benchDot(b *testing.B, dot func(a, c []float32) float32) {
	x, y := dotInputs()
	b.SetBytes(int64(2 * len(x) * 4))
	b.ResetTimer()
	var sink float32
	for i := 0; i < b.N; i++ {
		sink += dot(x, y)
	}
	if math.IsNaN(float64(sink)) {
		b.Fatal("NaN sink")
	}
}

func BenchmarkDot(b *testing.B)    { benchDot(b, Dot) }
func BenchmarkDotRef(b *testing.B) { benchDot(b, DotRef) }
