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

// transposeInput is a 2048×2048 float32 matrix (16 MiB), whose column
// writes stride far past L1.
func transposeInput() Mat {
	return RandMat(rand.New(rand.NewSource(6)), 2048, 2048, 1)
}

// BenchmarkTransposeBlocked vs BenchmarkTransposeRef measures the cache win
// of the 64×64 tiled transpose.
func benchTranspose(b *testing.B, t func(m Mat) Mat) {
	m := transposeInput()
	b.SetBytes(int64(len(m.Data) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := t(m); out.Rows != m.Cols {
			b.Fatal("bad shape")
		}
	}
}

func BenchmarkTransposeBlocked(b *testing.B) { benchTranspose(b, Mat.T) }
func BenchmarkTransposeRef(b *testing.B)     { benchTranspose(b, Mat.TransposeRef) }
