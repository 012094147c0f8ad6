// Package fp16 emulates IEEE 754 binary16 ("half precision") storage.
//
// The HILOS accelerator stores K/V/X tensors in FP16 and accumulates in FP32
// (§5.4 of the paper). This package provides the conversions used to emulate
// that storage format on top of Go's float32: values are quantized with
// round-to-nearest-even, including subnormals, infinities and NaN.
package fp16

import "math"

// Bits is a raw IEEE 754 binary16 value.
type Bits uint16

const (
	signMask     = 0x8000
	expMask      = 0x7C00
	fracMask     = 0x03FF
	expBias      = 15
	fracBits     = 10
	maxFinite    = 0x7BFF // 65504
	infBits      = 0x7C00
	nanBits      = 0x7E00
	minNormalF32 = 6.103515625e-05 // 2^-14

	// float32 bit patterns bounding RoundInto's fast path: 2^-14 is the
	// smallest normal half, and 65520 is the first magnitude that rounds
	// past 65504.
	minNormalBits   = 0x38800000
	roundsToInfBits = 0x477FF000
	signMask32      = 0x80000000
)

// FromFloat32 converts a float32 to the nearest binary16 value using
// round-to-nearest-even, producing ±Inf on overflow and preserving NaN.
func FromFloat32(f float32) Bits {
	b := math.Float32bits(f)
	sign := Bits(b>>16) & signMask
	exp := int32(b>>23) & 0xFF
	frac := b & 0x7FFFFF

	switch {
	case exp == 0xFF: // Inf or NaN
		if frac != 0 {
			return sign | nanBits
		}
		return sign | infBits
	case exp == 0 && frac == 0: // signed zero
		return sign
	}

	// Unbiased exponent of the float32 value.
	e := exp - 127
	switch {
	case e > 15: // overflow to infinity
		return sign | infBits
	case e >= -14: // normal half range
		// 23-bit fraction -> 10-bit fraction with round-to-nearest-even.
		mant := frac | 0x800000 // implicit leading 1
		shift := uint32(13)
		return roundShift(sign, uint32(e+expBias), mant, shift)
	case e >= -24: // subnormal half range
		mant := frac | 0x800000
		shift := uint32(13 + (-14 - e))
		return roundShift(sign, 0, mant, shift)
	default: // underflow to zero
		return sign
	}
}

// roundShift shifts mant right, applying round-to-nearest-even, and packs the
// result with the given sign and biased exponent. It handles mantissa
// overflow into the exponent (e.g. 0x3FF rounding up).
func roundShift(sign Bits, biasedExp, mant, shift uint32) Bits {
	if shift > 31 {
		return sign
	}
	kept := mant >> shift
	rem := mant & ((1 << shift) - 1)
	half := uint32(1) << (shift - 1)
	if rem > half || (rem == half && kept&1 == 1) {
		kept++
	}
	// kept may now overflow the 11-bit (implicit-1 + 10 fraction) field;
	// the carry propagates cleanly into the exponent because the encoding
	// is monotone.
	v := uint32(sign) | biasedExp<<fracBits
	// For normals, subtract the implicit bit before packing.
	if biasedExp != 0 {
		v += kept - (1 << fracBits)
	} else {
		v += kept
	}
	if v&^uint32(signMask)&0xFFFF >= infBits && biasedExp != 0 {
		return (Bits(v) & signMask) | infBits
	}
	if Bits(v)&expMask == expMask {
		return (Bits(v) & signMask) | infBits
	}
	return Bits(v)
}

// ToFloat32 converts a binary16 value to float32 exactly (binary16 ⊂ binary32).
func ToFloat32(h Bits) float32 {
	sign := uint32(h&signMask) << 16
	exp := uint32(h&expMask) >> fracBits
	frac := uint32(h & fracMask)

	switch {
	case exp == 0x1F: // Inf or NaN
		if frac != 0 {
			return math.Float32frombits(sign | 0x7FC00000 | frac<<13)
		}
		return math.Float32frombits(sign | 0x7F800000)
	case exp == 0:
		if frac == 0 {
			return math.Float32frombits(sign) // signed zero
		}
		// Subnormal half: value = frac * 2^-24.
		return math.Float32frombits(sign) + float32(float32(frac)*float32(math.Ldexp(1, -24))*sgn(sign))
	}
	return math.Float32frombits(sign | (exp+127-expBias)<<23 | frac<<13)
}

func sgn(signBit uint32) float32 {
	if signBit != 0 {
		return -1
	}
	return 1
}

// roundNormal is RoundInto's fast path on float32 bits b; ok is false
// outside [2^-14, 65520) in magnitude. Small enough to inline into
// RoundInto.
func roundNormal(b uint32) (r uint32, ok bool) {
	if b&^signMask32-minNormalBits >= roundsToInfBits-minNormalBits {
		return 0, false
	}
	return (b + 0xFFF + b>>13&1) &^ 0x1FFF, true
}

// RoundInto quantizes every element of src through binary16 and back into
// dst[:len(src)] and returns that slice; dst may be src itself. src is
// only read, so a storage fill can copy and round in one pass.
//
// Magnitudes in [2^-14, 65520), all of which round to a normal half, take
// an exact fast path on the float32 bits: a normal half is a float32 whose
// low 13 fraction bits are zero, so round-to-nearest-even at bit 13 (add
// 0xFFF plus the kept low bit, then clear the 13 bits) picks the same half
// as the round trip, and a mantissa carry moves into the exponent just as it
// does in binary16.
// Everything else (subnormals, zero, overflow to ±Inf past 65504, Inf and
// NaN) takes the FromFloat32/ToFloat32 round trip, so each element ends
// bit-identical to ToFloat32(FromFloat32(v)).
func RoundInto(dst, src []float32) []float32 {
	dst = dst[:len(src)]
	for i, v := range src {
		if b, ok := roundNormal(math.Float32bits(v)); ok {
			dst[i] = math.Float32frombits(b)
		} else {
			dst[i] = ToFloat32(FromFloat32(v))
		}
	}
	return dst
}

// RoundSlice quantizes every element of s through binary16 and back in
// place and returns s: RoundInto(s, s). This is the fundamental "stored as
// FP16" emulation used across the repository.
func RoundSlice(s []float32) []float32 { return RoundInto(s, s) }
