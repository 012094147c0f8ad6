package workload

import (
	"math"
	"testing"
)

// Seeded determinism: the same seed must reproduce the identical arrival
// sequence; a different seed must not.
func TestPoissonArrivalsDeterministic(t *testing.T) {
	a, err := PoissonArrivals(42, 2.0, 500)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PoissonArrivals(42, 2.0, 500)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between identically seeded runs: %v vs %v", i, a[i], b[i])
		}
	}
	c, _ := PoissonArrivals(43, 2.0, 500)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

// Rate correctness: the empirical rate n/span of a long Poisson trace must
// be within a few percent of the requested rate, and arrivals must be
// strictly increasing and positive.
func TestPoissonArrivalsRate(t *testing.T) {
	const rate, n = 4.0, 20000
	a, err := PoissonArrivals(7, rate, n)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i, x := range a {
		if x <= prev {
			t.Fatalf("arrival %d not strictly increasing: %v after %v", i, x, prev)
		}
		prev = x
	}
	got := float64(n) / a[n-1]
	if rel := math.Abs(got-rate) / rate; rel > 0.05 {
		t.Errorf("empirical rate %.3f req/s, want %.3f ±5%%", got, rate)
	}
}

func TestUniformArrivals(t *testing.T) {
	a, err := UniformArrivals(2.0, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 1.0, 1.5, 2.0}
	for i := range want {
		if math.Abs(a[i]-want[i]) > 1e-12 {
			t.Errorf("arrival %d = %v, want %v", i, a[i], want[i])
		}
	}
}

// Bursty arrivals: deterministic per seed, strictly increasing, with the
// requested long-run mean rate but markedly more inter-arrival variance
// than a Poisson process (CV > 1 is the definition of bursty).
func TestBurstyArrivals(t *testing.T) {
	const rate, n = 2.0, 20000
	a, err := BurstyArrivals(9, rate, n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BurstyArrivals(9, rate, n)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between identically seeded runs", i)
		}
		if a[i] <= prev {
			t.Fatalf("arrival %d not strictly increasing: %v after %v", i, a[i], prev)
		}
		prev = a[i]
	}
	got := float64(n) / a[n-1]
	if rel := math.Abs(got-rate) / rate; rel > 0.15 {
		t.Errorf("empirical rate %.3f req/s, want %.3f ±15%%", got, rate)
	}
	// Coefficient of variation of inter-arrival gaps: 1 for Poisson,
	// substantially above 1 for a two-state MMPP with a 16× rate ratio.
	var sum, sumSq float64
	gaps := make([]float64, n)
	last := 0.0
	for i, x := range a {
		gaps[i] = x - last
		last = x
		sum += gaps[i]
	}
	mean := sum / float64(n)
	for _, g := range gaps {
		sumSq += (g - mean) * (g - mean)
	}
	cv := math.Sqrt(sumSq/float64(n)) / mean
	if cv < 1.2 {
		t.Errorf("inter-arrival CV %.3f, want > 1.2 (burstier than Poisson)", cv)
	}
}

func TestMMPPArrivalsErrors(t *testing.T) {
	if _, err := MMPPArrivals(1, 0, 1, 1, 1, 10); err == nil {
		t.Error("zero quiet rate accepted")
	}
	if _, err := MMPPArrivals(1, 1, -1, 1, 1, 10); err == nil {
		t.Error("negative burst rate accepted")
	}
	if _, err := MMPPArrivals(1, 1, 1, 0, 1, 10); err == nil {
		t.Error("zero sojourn accepted")
	}
	if _, err := MMPPArrivals(1, 1, 1, 1, 1, 0); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := BurstyArrivals(1, 0, 10); err == nil {
		t.Error("zero rate accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range [][4]float64{
		{nan, 1, 1, 1}, {1, nan, 1, 1}, {1, 1, nan, 1}, {1, 1, 1, nan},
		{inf, 1, 1, 1}, {1, inf, 1, 1}, {1, 1, inf, 1}, {1, 1, 1, inf},
	} {
		if _, err := MMPPArrivals(1, c[0], c[1], c[2], c[3], 10); err == nil {
			t.Errorf("MMPPArrivals(rates %g, %g; sojourns %g, %g) accepted", c[0], c[1], c[2], c[3])
		}
	}
	for _, r := range []float64{nan, inf} {
		if _, err := BurstyArrivals(1, r, 10); err == nil {
			t.Errorf("BurstyArrivals rate %g accepted", r)
		}
	}
}

// The deadline helper: absolute start deadline, or +Inf when unset.
func TestStartDeadline(t *testing.T) {
	r := TimedRequest{ArrivalSec: 5, DeadlineSec: 10}
	if got := r.StartDeadline(); got != 15 {
		t.Errorf("start deadline %v, want 15", got)
	}
	if got := (TimedRequest{ArrivalSec: 5}).StartDeadline(); !math.IsInf(got, 1) {
		t.Errorf("unset deadline %v, want +Inf", got)
	}
}

func TestArrivalErrors(t *testing.T) {
	if _, err := PoissonArrivals(1, 0, 10); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := PoissonArrivals(1, 1, 0); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := UniformArrivals(-1, 10); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := Timed([]Class{Short}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Timed([]Class{Short}, []float64{-1}); err == nil {
		t.Error("negative arrival accepted")
	}
	if _, err := Timed(nil, nil); err == nil {
		t.Error("empty trace accepted")
	}
	for _, r := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := PoissonArrivals(1, r, 10); err == nil {
			t.Errorf("PoissonArrivals rate %g accepted", r)
		}
		if _, err := UniformArrivals(r, 10); err == nil {
			t.Errorf("UniformArrivals rate %g accepted", r)
		}
	}
}

// TimedTrace must attach timestamps to a mix draw deterministically and
// keep the result sorted by arrival.
func TestTimedTrace(t *testing.T) {
	g, err := NewGenerator(3, AzureLikeMix())
	if err != nil {
		t.Fatal(err)
	}
	arr, err := PoissonArrivals(3, 1.0, 200)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := g.TimedTrace(arr)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 200 {
		t.Fatalf("got %d requests, want 200", len(reqs))
	}
	seen := map[int]bool{}
	prev := -1.0
	for _, r := range reqs {
		if r.ArrivalSec < prev {
			t.Fatal("requests not sorted by arrival")
		}
		prev = r.ArrivalSec
		if seen[r.ID] {
			t.Fatalf("duplicate request ID %d", r.ID)
		}
		seen[r.ID] = true
		if _, ok := ClassByName(r.Class.Name); !ok {
			t.Fatalf("unknown class %q in trace", r.Class.Name)
		}
	}
}

func TestClassByName(t *testing.T) {
	for _, c := range Classes() {
		got, ok := ClassByName(c.Name)
		if !ok || got != c {
			t.Errorf("ClassByName(%q) = %+v, %v", c.Name, got, ok)
		}
	}
	if _, ok := ClassByName("nope"); ok {
		t.Error("unknown class resolved")
	}
}

func TestTimedRejectsNonFinite(t *testing.T) {
	if _, err := Timed([]Class{Short}, []float64{math.NaN()}); err == nil {
		t.Error("NaN arrival accepted")
	}
	if _, err := Timed([]Class{Short}, []float64{math.Inf(1)}); err == nil {
		t.Error("infinite arrival accepted")
	}
}
