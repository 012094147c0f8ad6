package tensor

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// randVec returns an n-length vector of N(0,1) values.
func randVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// DotRef is the scalar reference for the striped Dot: one accumulator,
// strict index order. The striped Dot equals it bitwise for lengths < 8,
// where the striped tail degenerates to exactly this loop, and within FP32
// reassociation tolerance otherwise.
func DotRef(a, b []float32) float32 {
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// TransposeRef is the naive row-by-row transpose the blocked T must equal
// bit for bit.
func (m Mat) TransposeRef() Mat {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// TestDotStripedMatchesRefEdgeLanes pins the striped Dot against the
// retained scalar DotRef for every length 0..17 — both remainder classes of
// the 8-wide stripe plus full groups. Lengths below 8 never enter the
// striped loop, so there the contract is bitwise equality; longer lengths
// reassociate and are held to FP32 tolerance.
func TestDotStripedMatchesRefEdgeLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for n := 0; n <= 17; n++ {
		for rep := 0; rep < 8; rep++ {
			a, b := randVec(rng, n), randVec(rng, n)
			got, want := Dot(a, b), DotRef(a, b)
			if n < 8 {
				if got != want {
					t.Fatalf("n=%d: striped %v != scalar %v (must be bitwise below one stripe)", n, got, want)
				}
				continue
			}
			if d := math.Abs(float64(got) - float64(want)); d > 1e-4*(1+math.Abs(float64(want))) {
				t.Fatalf("n=%d: striped %v vs scalar %v differ by %v", n, got, want, d)
			}
		}
	}
}

// TestDotNaNPropagates: a NaN anywhere in either input must surface as a
// NaN result from both implementations — NaN survives any association.
func TestDotNaNPropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{1, 3, 8, 9, 16, 17, 33} {
		for pos := 0; pos < n; pos += 1 + n/4 {
			a, b := randVec(rng, n), randVec(rng, n)
			a[pos] = float32(math.NaN())
			if got := Dot(a, b); !math.IsNaN(float64(got)) {
				t.Fatalf("n=%d pos=%d: striped Dot = %v, want NaN", n, pos, got)
			}
			if got := DotRef(a, b); !math.IsNaN(float64(got)) {
				t.Fatalf("n=%d pos=%d: DotRef = %v, want NaN", n, pos, got)
			}
		}
	}
}

// TestDotInf covers the documented Inf behaviors where both orders agree:
// a single signed overflow dominates (both +Inf), and opposing infinities
// annihilate to NaN under every association.
func TestDotInf(t *testing.T) {
	inf := float32(math.Inf(1))
	ones := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = 1
		}
		return v
	}
	for _, n := range []int{2, 8, 11, 16} {
		a := ones(n)
		a[1] = inf
		if got, want := Dot(a, ones(n)), DotRef(a, ones(n)); got != inf || want != inf {
			t.Fatalf("n=%d: single +Inf: striped %v, scalar %v, want +Inf", n, got, want)
		}
		a[0] = -inf
		gotS, gotR := Dot(a, ones(n)), DotRef(a, ones(n))
		if !math.IsNaN(float64(gotS)) || !math.IsNaN(float64(gotR)) {
			t.Fatalf("n=%d: ±Inf pair: striped %v, scalar %v, want NaN", n, gotS, gotR)
		}
	}
}

// TestDotDeterministic: the striped reduction is a pure function of the
// input — repeated calls are bitwise identical even on NaN/Inf vectors.
func TestDotDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	a, b := randVec(rng, 1001), randVec(rng, 1001)
	a[17] = float32(math.Inf(1))
	b[901] = float32(math.NaN())
	first := Dot(a, b)
	for i := 0; i < 10; i++ {
		if got := Dot(a, b); math.Float32bits(got) != math.Float32bits(first) {
			t.Fatalf("run %d: %v differs from first run %v", i, got, first)
		}
	}
}

// TestBlockedTransposeMatchesRef: the tiled T is pure data movement and must
// equal the naive TransposeRef bit-for-bit on every shape class — below the
// tile floor, tile-aligned, ragged in one or both dimensions, and degenerate
// single-row/column shapes.
func TestBlockedTransposeMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	shapes := []struct{ r, c int }{
		{0, 0}, {1, 1}, {1, 65}, {65, 1}, {7, 9},
		{63, 64}, {64, 64}, {64, 65}, {65, 127}, {128, 128},
		{130, 67}, {67, 200}, {256, 31},
	}
	for _, sh := range shapes {
		m := RandMat(rng, sh.r, sh.c, 1)
		got, want := m.T(), m.TransposeRef()
		if got.Rows != want.Rows || got.Cols != want.Cols || !reflect.DeepEqual(got.Data, want.Data) {
			t.Fatalf("%dx%d: blocked transpose differs from reference", sh.r, sh.c)
		}
		back := got.T()
		if !reflect.DeepEqual(back.Data, m.Data) {
			t.Fatalf("%dx%d: (Mᵀ)ᵀ != M", sh.r, sh.c)
		}
	}
}

// TestMatMulDotPathMatchesAxpy: above the routing floor MatMul streams
// through bᵀ and the striped Dot; the result must match the retained axpy
// loop within FP32 reassociation tolerance, and stay bit-identical across
// worker counts (row results are index-owned either way).
func TestMatMulDotPathMatchesAxpy(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	// 64·72·80 = 368640 ≥ matMulDotFlops? No — pick shapes straddling it.
	big := struct{ m, k, n int }{128, 96, 128} // 1.5M flops: dot path
	a := RandMat(rng, big.m, big.k, 1)
	b := RandMat(rng, big.k, big.n, 1)
	got := MatMul(a, b)
	axpy := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow, orow := a.Row(i), axpy.Row(i)
		for k := 0; k < a.Cols; k++ {
			av := arow[k]
			brow := b.Row(k)
			for j := range orow {
				orow[j] += av * brow[j]
			}
		}
	}
	if big.m*big.k*big.n < matMulDotFlops {
		t.Fatalf("test shape below matMulDotFlops; raise it")
	}
	for i := range got.Data {
		if d := math.Abs(float64(got.Data[i]) - float64(axpy.Data[i])); d > 1e-3*(1+math.Abs(float64(axpy.Data[i]))) {
			t.Fatalf("element %d: dot-path %v vs axpy %v", i, got.Data[i], axpy.Data[i])
		}
	}
	// Worker count must never reach a bit.
	old := runtime.GOMAXPROCS(1)
	serial := MatMul(a, b)
	runtime.GOMAXPROCS(4)
	par := MatMul(a, b)
	runtime.GOMAXPROCS(old)
	if !reflect.DeepEqual(serial.Data, par.Data) || !reflect.DeepEqual(serial.Data, got.Data) {
		t.Fatal("MatMul differs across worker counts")
	}
}

// FuzzDotStripedEquivalence fuzzes lengths and value classes, asserting the
// striped Dot agrees with the scalar DotRef: bitwise below one stripe,
// within FP32 tolerance for finite data, NaN-for-NaN when NaN is injected,
// and always deterministic call to call. mode selects the value class:
// 0 finite, 1 inject a NaN, 2 inject Infs (where only determinism and NaN
// agreement can be demanded — opposing overflows legally reassociate to
// different non-finite values).
func FuzzDotStripedEquivalence(f *testing.F) {
	f.Add(int64(1), 17, 0)
	f.Add(int64(2), 8, 1)
	f.Add(int64(3), 0, 0)
	f.Add(int64(4), 33, 2)
	f.Add(int64(5), 7, 1)
	f.Fuzz(func(t *testing.T, seed int64, n, mode int) {
		if n < 0 || n > 4096 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		a, b := randVec(rng, n), randVec(rng, n)
		if n > 0 {
			switch mode % 3 {
			case 1:
				a[rng.Intn(n)] = float32(math.NaN())
			case 2:
				a[rng.Intn(n)] = float32(math.Inf(1 - 2*rng.Intn(2)))
				b[rng.Intn(n)] = float32(math.Inf(1 - 2*rng.Intn(2)))
			}
		}
		got, ref := Dot(a, b), DotRef(a, b)
		if again := Dot(a, b); math.Float32bits(again) != math.Float32bits(got) {
			t.Fatalf("n=%d mode=%d: striped Dot not deterministic", n, mode)
		}
		switch {
		case math.IsNaN(float64(ref)) && n > 0 && mode%3 == 1:
			// NaN input: both must be NaN regardless of association.
			if !math.IsNaN(float64(got)) {
				t.Fatalf("n=%d: ref NaN but striped %v", n, got)
			}
		case math.IsInf(float64(ref), 0) || math.IsNaN(float64(ref)) ||
			math.IsInf(float64(got), 0) || math.IsNaN(float64(got)):
			// Overflow regimes may legally diverge under reassociation;
			// determinism (checked above) is the only portable contract.
		case n < 8:
			if got != ref {
				t.Fatalf("n=%d: striped %v != scalar %v below one stripe", n, got, ref)
			}
		default:
			if d := math.Abs(float64(got) - float64(ref)); d > 1e-3*(1+math.Abs(float64(ref))) {
				t.Fatalf("n=%d: striped %v vs scalar %v differ by %v", n, got, ref, d)
			}
		}
	})
}

// FuzzBlockedTranspose fuzzes shapes around the tile boundary, requiring the
// tiled transpose to be bit-identical to the naive reference.
func FuzzBlockedTranspose(f *testing.F) {
	f.Add(int64(1), 64, 64)
	f.Add(int64(2), 65, 127)
	f.Add(int64(3), 1, 200)
	f.Fuzz(func(t *testing.T, seed int64, rows, cols int) {
		if rows < 0 || cols < 0 || rows > 512 || cols > 512 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		m := RandMat(rng, rows, cols, 1)
		got, want := m.T(), m.TransposeRef()
		if !reflect.DeepEqual(got.Data, want.Data) {
			t.Fatalf("%dx%d: blocked transpose differs from reference", rows, cols)
		}
	})
}
