// Package attention implements the attention algorithms of the paper's
// functional substrate: reference (3-pass) softmax attention, the HILOS
// accelerator's two-pass online softmax (Algorithm 1), blocked attention
// matching the accelerator dataflow, grouped-query attention, X-cache
// regeneration, the delayed-writeback partial-score merge, and a lossy top-k
// attention used as an InstAttention proxy (Fig. 18c).
package attention

import (
	"math"
)

// MaskValue is the constant assigned to padding positions before softmax
// (§5.4: "a masking module assigns a constant value of −10⁴ to padding
// tokens").
const MaskValue float32 = -1e4

// SoftmaxRef computes softmax(x) with the standard numerically stable
// three-pass method (max, sum of exponentials, normalize). The result is
// written to a new slice.
func SoftmaxRef(x []float32) []float32 {
	out := make([]float32, len(x))
	if len(x) == 0 {
		return out
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	var z float64
	for _, v := range x {
		z += math.Exp(float64(v - m))
	}
	for i, v := range x {
		out[i] = float32(math.Exp(float64(v-m)) / z)
	}
	return out
}

// Stats holds the running softmax statistics maintained by the streaming
// update unit (Algorithm 1 lines 5-9): the running maximum m and the running
// rescaled sum of exponentials Z.
type Stats struct {
	M float64 // running maximum
	Z float64 // running sum of exp(x - M)
}

// NewStats returns the identity statistics (M = -Inf, Z = 0).
func NewStats() Stats { return Stats{M: math.Inf(-1), Z: 0} }

// UpdateBlock folds a block's local statistics (local max mB, local sum sB of
// exp(x - mB)) into the running statistics, exactly as the hardware streaming
// update unit does.
func (s *Stats) UpdateBlock(mB, sB float64) {
	switch {
	case math.IsInf(mB, -1):
		// Fully masked block contributes nothing.
	case mB > s.M:
		s.Z = float64(s.Z*math.Exp(s.M-mB)) + sB
		s.M = mB
	default:
		s.Z += float64(sB * math.Exp(mB-s.M))
	}
}

// Merge folds another Stats value into s; used by the delayed-writeback path
// to combine storage-side and host-side partial attention.
func (s *Stats) Merge(o Stats) { s.UpdateBlock(o.M, o.Z) }

// BlockStats computes the local maximum and local sum of exponentials of a
// block (Algorithm 1 lines 3-4). Masked elements (mask[i]==false) are
// replaced with MaskValue before the reduction, matching the hardware MASK
// module. mask may be nil, meaning all valid.
func BlockStats(block []float32, mask []bool) (mB, sB float64) {
	mB = math.Inf(-1)
	for i, v := range block {
		x := float64(applyMask(v, mask, i))
		if x > mB {
			mB = x
		}
	}
	if math.IsInf(mB, -1) {
		return mB, 0
	}
	for i, v := range block {
		x := float64(applyMask(v, mask, i))
		sB += math.Exp(x - mB)
	}
	return mB, sB
}

func applyMask(v float32, mask []bool, i int) float32 {
	if mask != nil && !mask[i] {
		return MaskValue
	}
	return v
}

// SoftmaxTwoPass computes softmax(x) with the accelerator's two-pass method
// (Algorithm 1): a first streaming pass over blocks of blockSize elements
// computing global statistics, and a second element-wise normalization pass.
// mask may be nil.
func SoftmaxTwoPass(x []float32, mask []bool, blockSize int) []float32 {
	if blockSize <= 0 {
		blockSize = 128
	}
	st := NewStats()
	for lo := 0; lo < len(x); lo += blockSize {
		hi := lo + blockSize
		if hi > len(x) {
			hi = len(x)
		}
		var bm []bool
		if mask != nil {
			bm = mask[lo:hi]
		}
		mB, sB := BlockStats(x[lo:hi], bm)
		st.UpdateBlock(mB, sB)
	}
	out := make([]float32, len(x))
	for i, v := range x {
		xv := float64(applyMask(v, mask, i))
		out[i] = float32(math.Exp(xv-st.M) / st.Z)
	}
	return out
}
