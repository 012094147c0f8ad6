package fp16

import (
	"math"
	"testing"
)

// FuzzRoundTrip checks the core conversion invariants on arbitrary bit
// patterns: RoundSlice equals the FromFloat32/ToFloat32 round trip bit for bit
// (its fast path included), idempotence, sign preservation, and exact round
// trips for representable values. RoundInto into a distinct, longer dst
// must give the same bits for the pattern and its neighbours, leave src
// and dst's tail unwritten, and return dst[:len(src)].
func FuzzRoundTrip(f *testing.F) {
	for _, seed := range []uint32{
		0, 1, 0x3F800000, 0x7F800000, 0x7FC00000, 0x80000000, 0x477FE000,
		0x477FEFFF, 0x477FF000, 0x38800000, 0x387FFFFF, 0x3F801000, 0xBF803000,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, bits uint32) {
		x := math.Float32frombits(bits)
		r := round(x)
		if got, want := math.Float32bits(r), roundTripBits(x); got != want {
			t.Fatalf("round(%#08x) = %#08x, round trip %#08x", bits, got, want)
		}
		src := []float32{
			math.Float32frombits(bits), math.Float32frombits(bits ^ 1),
			math.Float32frombits(bits + 0x1000), math.Float32frombits(bits ^ signMask32),
		}
		srcBits := make([]uint32, len(src))
		for i, v := range src {
			srcBits[i] = math.Float32bits(v)
		}
		const canary = 0x7FC0DEAD // a NaN that no rounding produces
		dst := make([]float32, len(src)+1)
		for i := range dst {
			dst[i] = math.Float32frombits(canary)
		}
		got := RoundInto(dst, src)
		if len(got) != len(src) || &got[0] != &dst[0] {
			t.Fatalf("RoundInto returned %d elements at another array, want dst[:%d]", len(got), len(src))
		}
		for i, v := range src {
			if math.Float32bits(v) != srcBits[i] {
				t.Fatalf("RoundInto wrote src[%d]: %#08x -> %#08x", i, srcBits[i], math.Float32bits(v))
			}
			if g, w := math.Float32bits(got[i]), roundTripBits(v); g != w {
				t.Fatalf("RoundInto(%#08x) = %#08x, round trip %#08x", srcBits[i], g, w)
			}
		}
		if math.Float32bits(dst[len(src)]) != canary {
			t.Fatalf("RoundInto wrote dst past len(src)")
		}
		if math.IsNaN(float64(x)) {
			if !math.IsNaN(float64(r)) {
				t.Fatalf("NaN input produced %v", r)
			}
			return
		}
		// Idempotence.
		if round(r) != r {
			t.Fatalf("round not idempotent: %v -> %v -> %v", x, r, round(r))
		}
		// The rounded value is representable: its half bits survive a trip.
		h := FromFloat32(r)
		if ToFloat32(h) != r {
			t.Fatalf("rounded value %v not representable (bits %#04x)", r, h)
		}
		// Sign preservation (except for underflow-to-zero, where the sign
		// of zero is kept too).
		if math.Signbit(float64(x)) != math.Signbit(float64(r)) {
			t.Fatalf("sign changed: %v -> %v", x, r)
		}
	})
}

// FuzzMonotone checks ordering preservation on arbitrary pairs.
func FuzzMonotone(f *testing.F) {
	f.Add(uint32(0x3F800000), uint32(0x40000000))
	f.Fuzz(func(t *testing.T, a, b uint32) {
		x, y := math.Float32frombits(a), math.Float32frombits(b)
		if math.IsNaN(float64(x)) || math.IsNaN(float64(y)) {
			return
		}
		if x > y {
			x, y = y, x
		}
		if round(x) > round(y) {
			t.Fatalf("ordering violated: round(%v)=%v > round(%v)=%v", x, round(x), y, round(y))
		}
	})
}
