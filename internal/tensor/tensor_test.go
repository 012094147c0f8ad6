package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 2, []float32{1, 2, 3, 4})
	b := FromSlice(2, 2, []float32{5, 6, 7, 8})
	got := MatMul(a, b)
	want := []float32{19, 22, 43, 50}
	for i, w := range want {
		if got.Data[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, got.Data[i], w)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandMat(rng, 5, 5, 1)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Row(i)[i] = 1
	}
	if d := MaxAbsDiff(MatMul(a, id), a); d != 0 {
		t.Errorf("A·I differs from A by %v", d)
	}
	if d := MaxAbsDiff(MatMul(id, a), a); d != 0 {
		t.Errorf("I·A differs from A by %v", d)
	}
}

func TestMatVecMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := RandMat(rng, 6, 4, 1)
	x := RandMat(rng, 4, 1, 1)
	got := MatVec(m, x.Data)
	want := MatMul(m, x)
	for i := range got {
		if got[i] != want.Data[i] {
			t.Fatalf("MatVec[%d] = %v, want %v", i, got[i], want.Data[i])
		}
	}
}

func TestSliceRowsAliases(t *testing.T) {
	m := New(4, 2)
	s := m.SliceRows(1, 3)
	s.Row(0)[0] = 9
	if m.Row(1)[0] != 9 {
		t.Error("SliceRows does not alias parent storage")
	}
	if s.Rows != 2 || s.Cols != 2 {
		t.Errorf("SliceRows shape = %dx%d, want 2x2", s.Rows, s.Cols)
	}
}

func TestVStack(t *testing.T) {
	a := FromSlice(1, 2, []float32{1, 2})
	b := FromSlice(2, 2, []float32{3, 4, 5, 6})
	got := VStack(a, b)
	if got.Rows != 3 || got.Cols != 2 {
		t.Fatalf("VStack shape %dx%d", got.Rows, got.Cols)
	}
	want := []float32{1, 2, 3, 4, 5, 6}
	for i, w := range want {
		if got.Data[i] != w {
			t.Fatalf("VStack[%d] = %v, want %v", i, got.Data[i], w)
		}
	}
}

func TestRoundFP16(t *testing.T) {
	m := FromSlice(1, 2, []float32{1.0000001, 3.14159265})
	m.RoundFP16()
	// 1.0000001 is within half an FP16 ULP of 1.
	if m.Data[0] != 1 {
		t.Errorf("RoundFP16 kept %v", m.Data[0])
	}
}

// TestDotUnrollMatchesSequential: the striped Dot must agree with a plain
// float64 sequential accumulation within FP32 reassociation tolerance, for
// lengths spanning every remainder class of the 8-wide stripe.
func TestDotUnrollMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 127, 128, 129, 1000} {
		a := make([]float32, n)
		b := make([]float32, n)
		for i := 0; i < n; i++ {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		var seq float64
		for i := 0; i < n; i++ {
			seq += float64(a[i]) * float64(b[i])
		}
		got := float64(Dot(a, b))
		if d := math.Abs(got - seq); d > 1e-3*(1+math.Abs(seq)) {
			t.Errorf("n=%d: Dot = %v, sequential = %v (diff %v)", n, got, seq, d)
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dot did not panic on length mismatch")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

// Distributivity: A·(B+C) == A·B + A·C (exact would need exact arithmetic;
// allow small FP32 tolerance).
func TestMatMulDistributive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := RandMat(rng, 3, 4, 1)
		b := RandMat(rng, 4, 2, 1)
		c := RandMat(rng, 4, 2, 1)
		sum := b.Clone()
		for i, v := range c.Data {
			sum.Data[i] += v
		}
		lhs := MatMul(a, sum)
		rhs := MatMul(a, b)
		for i, v := range MatMul(a, c).Data {
			rhs.Data[i] += v
		}
		return MaxAbsDiff(lhs, rhs) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
