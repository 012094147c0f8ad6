package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("Mean = %v, want 2.5", m)
	}
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %v, want 0", m)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{10, 20, 30, 40, 50}
	r, err := Pearson(xs, ys)
	if err != nil || !almost(r, 1, 1e-12) {
		t.Errorf("Pearson = %v, %v; want 1", r, err)
	}
	for i := range ys {
		ys[i] = -ys[i]
	}
	r, err = Pearson(xs, ys)
	if err != nil || !almost(r, -1, 1e-12) {
		t.Errorf("Pearson anti = %v, %v; want -1", r, err)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err != ErrMismatch {
		t.Errorf("mismatch error not returned: %v", err)
	}
	if _, err := Pearson([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("zero variance not detected")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err == nil {
		t.Error("single sample not rejected")
	}
}

// Pearson is invariant to affine rescaling of either variable.
func TestPearsonAffineInvariance(t *testing.T) {
	f := func(a, b float64) bool {
		scale := math.Mod(math.Abs(a), 10) + 0.5
		shift := math.Mod(b, 100)
		xs := []float64{1, 3, 2, 8, 5, 7}
		ys := []float64{2, 5, 3, 9, 6, 10}
		r1, err1 := Pearson(xs, ys)
		zs := make([]float64, len(ys))
		for i, y := range ys {
			zs[i] = scale*y + shift
		}
		r2, err2 := Pearson(xs, zs)
		return err1 == nil && err2 == nil && almost(r1, r2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {20, 1}, {40, 2}, {50, 3}, {95, 5}, {99, 5}, {100, 5},
	}
	for _, c := range cases {
		if got := PercentileSorted(xs, c.p); got != c.want {
			t.Errorf("PercentileSorted(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := PercentileSorted(nil, 50); got != 0 {
		t.Errorf("empty sample percentile = %v, want 0", got)
	}
	if got := PercentileSorted([]float64{7}, 99); got != 7 {
		t.Errorf("singleton p99 = %v, want 7", got)
	}
}
