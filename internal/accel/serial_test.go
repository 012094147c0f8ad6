package accel

import (
	"math"

	"repro/internal/attention"
	"repro/internal/fp16"
	"repro/internal/tensor"
)

// attentionSerial is the original single-goroutine-per-group dataflow,
// retained as the golden reference for the fused AttentionWorkers: whole
// K/V clones quantized up front, one transposed K block per query row, and
// all of V re-streamed per row. With the chunk span pinned past the sequence
// length the fused datapath reduces to exactly this association, which the
// equivalence tests pin bit-for-bit.
//
//lint:allow floataccum score·V and host-partial folds model the hardware's FP32 accumulators
func (a *Accelerator) attentionSerial(q, k, v tensor.Mat, mask []bool, hostScores tensor.Mat, hostV tensor.Mat) (tensor.Mat, error) {
	if err := a.validateAttention(q, k, v, hostScores, hostV); err != nil {
		return tensor.Mat{}, err
	}

	// Storage precision emulation.
	q = q.Clone().RoundFP16()
	k = k.Clone().RoundFP16()
	v = v.Clone().RoundFP16()

	s := k.Rows
	sPad := PadSequence(s)
	scale := float32(1 / math.Sqrt(float64(a.cfg.HeadDim)))
	ln := new(lane)

	out := tensor.New(q.Rows, v.Cols)
	for g := 0; g < a.cfg.DGroup; g++ {
		qrow := q.Row(g)

		// Pass over blocks: query-key product unit with online transpose,
		// then softmax statistics aggregation (first pass of Algorithm 1).
		scores := make([]float32, sPad) // SM-Buf contents (stored FP16)
		st := attention.NewStats()
		for lo := 0; lo < sPad; lo += BlockTokens {
			hi := lo + BlockTokens
			if hi > sPad {
				hi = sPad
			}
			blockScores := a.qkBlock(qrow, k, lo, hi, scale)
			// Hardware stores QKᵀ results at FP16 before the softmax reads
			// them back from SM-Buf.
			fp16.RoundSlice(blockScores)
			copy(scores[lo:hi], blockScores)
			bm := ln.blockMask(mask, lo, hi, s)
			mB, sB := attention.BlockStats(blockScores, bm)
			st.UpdateBlock(mB, sB)
		}

		// Merge the host-side delayed-writeback partial (new KV entries
		// buffered in host DRAM; the CPU shipped only QKᵀ scalars + V rows).
		var partial attention.Partial
		if hostScores.Rows > 0 {
			partial = attention.PartialFromScores(hostScores.Row(g), hostV)
			st.Merge(partial.Stats)
		}

		// Second pass: softmax normalization unit + score-value product
		// unit, block by block.
		orow := out.Row(g)
		for lo := 0; lo < sPad; lo += BlockTokens {
			hi := lo + BlockTokens
			if hi > sPad {
				hi = sPad
			}
			bm := ln.blockMask(mask, lo, hi, s)
			for i := lo; i < hi; i++ {
				x := scores[i]
				if bm != nil && !bm[i-lo] {
					x = attention.MaskValue
				}
				w := float32(math.Exp(float64(x) - st.M))
				if w == 0 || i >= s {
					continue
				}
				vrow := v.Row(i)
				for j := range orow {
					orow[j] += float32(w * vrow[j])
				}
			}
		}
		// Fold in the host partial accumulator (already scaled to its own
		// max; rescale to the global max).
		if hostScores.Rows > 0 {
			r := float32(math.Exp(partial.Stats.M - st.M))
			for j := range orow {
				orow[j] += float32(partial.Acc[j] * r)
			}
		}
		// Division by the global denominator (second pass, line 11).
		inv := float32(1 / st.Z)
		for j := range orow {
			orow[j] *= inv
		}
	}
	return out, nil
}

// qkBlock is the query-key product unit for one block [lo,hi) as the
// hardware runs it: it loads the K block and computes scaled q·Kᵀ.
//
//lint:allow floataccum the per-token dot chain is the modeled 128-lane FP32 MAC array
func (a *Accelerator) qkBlock(qrow []float32, k tensor.Mat, lo, hi int, scale float32) []float32 {
	n := hi - lo
	out := make([]float32, n)
	realHi := hi
	if realHi > k.Rows {
		realHi = k.Rows
	}
	if realHi <= lo {
		return out // fully padded block: scores stay 0, masked later
	}
	// MAC array: for each token column of KT, dot with q. The transpose
	// only moves data, so column t of KT is row lo+t of K.
	for t := 0; t < realHi-lo; t++ {
		krow := k.Row(lo + t)
		var acc float32
		for dim := range qrow {
			acc += float32(qrow[dim] * krow[dim])
		}
		out[t] = acc * scale
	}
	return out
}
