package tensor

import (
	"math"
	"math/rand"
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
