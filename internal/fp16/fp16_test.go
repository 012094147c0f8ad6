package fp16

import (
	"flag"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// round quantizes one value through RoundSlice.
func round(f float32) float32 {
	s := [1]float32{f}
	RoundSlice(s[:])
	return s[0]
}

func TestExactValues(t *testing.T) {
	cases := []struct {
		f    float32
		want Bits
	}{
		{0, 0x0000},
		{float32(math.Copysign(0, -1)), 0x8000},
		{1, 0x3C00},
		{-1, 0xBC00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7BFF},
		{-65504, 0xFBFF},
		{6.103515625e-05, 0x0400},       // smallest normal
		{5.960464477539063e-08, 0x0001}, // smallest subnormal
		{float32(math.Inf(1)), 0x7C00},
		{float32(math.Inf(-1)), 0xFC00},
	}
	for _, c := range cases {
		if got := FromFloat32(c.f); got != c.want {
			t.Errorf("FromFloat32(%g) = %#04x, want %#04x", c.f, got, c.want)
		}
		if !math.IsNaN(float64(c.f)) {
			if back := ToFloat32(c.want); back != c.f {
				t.Errorf("ToFloat32(%#04x) = %g, want %g", c.want, back, c.f)
			}
		}
	}
}

func TestOverflowToInf(t *testing.T) {
	if got := FromFloat32(65520); got != infBits {
		t.Errorf("FromFloat32(65520) = %#04x, want +Inf (%#04x)", got, infBits)
	}
	if got := FromFloat32(1e10); got != infBits {
		t.Errorf("FromFloat32(1e10) = %#04x, want +Inf", got)
	}
	if got := FromFloat32(-1e10); got != infBits|signMask {
		t.Errorf("FromFloat32(-1e10) = %#04x, want -Inf", got)
	}
}

func TestNaNPreserved(t *testing.T) {
	h := FromFloat32(float32(math.NaN()))
	if h&expMask != expMask || h&fracMask == 0 {
		t.Errorf("NaN not preserved: %#04x", h)
	}
	if !math.IsNaN(float64(ToFloat32(h))) {
		t.Errorf("ToFloat32(NaN bits) not NaN")
	}
}

func TestUnderflowToZero(t *testing.T) {
	if got := FromFloat32(1e-10); got != 0 {
		t.Errorf("FromFloat32(1e-10) = %#04x, want 0", got)
	}
	if got := FromFloat32(-1e-10); got != signMask {
		t.Errorf("FromFloat32(-1e-10) = %#04x, want -0", got)
	}
}

func TestRoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1 and 1+2^-10; ties go to even (1).
	f := float32(1) + float32(math.Ldexp(1, -11))
	if got := round(f); got != 1 {
		t.Errorf("round(1+2^-11) = %g, want 1 (round to even)", got)
	}
	// 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; ties to even (1+2^-9).
	f = float32(1) + 3*float32(math.Ldexp(1, -11))
	want := float32(1) + float32(math.Ldexp(1, -9))
	if got := round(f); got != want {
		t.Errorf("round(1+3*2^-11) = %g, want %g", got, want)
	}
}

// TestRoundTripProperty checks that every representable half value survives a
// float32 round trip unchanged.
func TestRoundTripProperty(t *testing.T) {
	for b := 0; b < 1<<16; b++ {
		h := Bits(b)
		f := ToFloat32(h)
		if math.IsNaN(float64(f)) {
			continue // NaN payload need not be preserved bit-exactly
		}
		if got := FromFloat32(f); got != h {
			t.Fatalf("round trip %#04x -> %g -> %#04x", h, f, got)
		}
	}
}

// TestRoundIdempotent: quantizing twice equals quantizing once.
func TestRoundIdempotent(t *testing.T) {
	f := func(x float32) bool {
		a := round(x)
		if math.IsNaN(float64(a)) {
			return math.IsNaN(float64(round(a)))
		}
		return round(a) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// MaxValue is the largest finite binary16 value (65504).
const MaxValue float32 = 65504

// Eps is the machine epsilon of binary16 (2^-10).
const Eps float32 = 1.0 / 1024

// TestRoundErrorBound: relative quantization error of normal-range values is
// at most one half ULP (2^-11 relative).
func TestRoundErrorBound(t *testing.T) {
	f := func(x float32) bool {
		ax := float64(math.Abs(float64(x)))
		if ax < minNormalF32 || ax > float64(MaxValue) || math.IsNaN(float64(x)) {
			return true
		}
		r := round(x)
		rel := math.Abs(float64(r)-float64(x)) / ax
		return rel <= float64(Eps)/2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
}

// TestMonotone: quantization preserves ordering.
func TestMonotone(t *testing.T) {
	f := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return round(a) <= round(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
}

func TestRoundSlice(t *testing.T) {
	s := []float32{1.0002441, -3.14159, 65504, 0}
	RoundSlice(s)
	for i, v := range s {
		if round(v) != v {
			t.Errorf("element %d not quantized: %g", i, v)
		}
	}
}

// roundTripBits is the reference round: the FromFloat32/ToFloat32 round trip.
func roundTripBits(x float32) uint32 { return math.Float32bits(ToFloat32(FromFloat32(x))) }

// TestRoundMatchesRoundTripAtBoundaries sweeps every float32 whose low 13
// bits (the ones binary16 drops) form a rounding-boundary pattern — exact,
// just above exact, just below and at the tie, just above the tie, just
// below the next half — over all 2^19 sign/exponent/kept-fraction prefixes,
// and requires RoundSlice's fast path to match the round trip bit for bit.
func TestRoundMatchesRoundTripAtBoundaries(t *testing.T) {
	for hi := uint32(0); hi < 1<<19; hi++ {
		for _, lo := range []uint32{0, 1, 0xFFF, 0x1000, 0x1001, 0x1FFF} {
			x := math.Float32frombits(hi<<13 | lo)
			if got, want := math.Float32bits(round(x)), roundTripBits(x); got != want {
				t.Fatalf("round(%#08x) = %#08x, round trip %#08x", hi<<13|lo, got, want)
			}
		}
	}
	s := []float32{1, 65519.996, 65520, 6.1035156e-05, 6.1035152e-05}
	want := make([]uint32, len(s))
	for i, x := range s {
		want[i] = roundTripBits(x)
	}
	for i, x := range RoundSlice(s) {
		if math.Float32bits(x) != want[i] {
			t.Errorf("RoundSlice element %d = %#08x, round trip %#08x", i, math.Float32bits(x), want[i])
		}
	}
}

var exhaustive = flag.Bool("exhaustive", false, "compare RoundSlice with the round trip on all 2^32 float32 patterns")

// TestRoundExhaustive is the full 2^32 sweep of
// TestRoundMatchesRoundTripAtBoundaries (tens of seconds); it runs only
// with -exhaustive.
func TestRoundExhaustive(t *testing.T) {
	if !*exhaustive {
		t.Skip("run with -exhaustive")
	}
	const shards = 256
	var wg sync.WaitGroup
	var mismatches atomic.Int64
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for sh := uint32(0); sh < shards; sh++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			for lo := uint32(0); lo < 1<<24; lo++ {
				b := sh<<24 | lo
				x := math.Float32frombits(b)
				if math.Float32bits(round(x)) != roundTripBits(x) && mismatches.Add(1) == 1 {
					t.Errorf("round(%#08x) differs from the round trip", b)
				}
			}
		}()
	}
	wg.Wait()
	if n := mismatches.Load(); n > 0 {
		t.Fatalf("%d patterns differ", n)
	}
}
