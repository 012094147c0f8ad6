package accel

import (
	"math"
	"sync"

	"repro/internal/attention"
	"repro/internal/fp16"
	"repro/internal/tensor"
)

// This file implements the fused functional datapath of the accelerator
// model. AttentionWorkers streams K/V through 128-token blocks as the
// hardware's on-chip buffers do, sharding block-aligned chunks across the
// kernel worker pool (tensor.ParallelFor) while staying bit-identical to a
// one-worker run:
//
//   - The chunk partition is a pure function of shape and the chunkTokens
//     argument (chunkSpan), never of worker count, and every chunk work
//     item owns its score slices, its per-block stat slots and its
//     per-group chunk accumulators.
//   - Each block is rounded to FP16 straight into per-worker lane scratch
//     in one pass, so the caller's K/V are never cloned or written, and one
//     filled block serves all d_group query rows.
//   - The inner loops are register-blocked without reassociating anything:
//     qkRow keeps 8 (then 1) tokens' dot chains in flight, each
//     still one sequential FP32 chain over the head dimension, and svAdd
//     adds 4 tokens' V rows per accumulator load and store, each element
//     still seeing one FP32 add per token in token order.
//   - Per-group softmax statistics fold serially in block index order —
//     exactly the serial dataflow's association — and chunk accumulators
//     reduce through a fixed-shape stride-doubling tree.
//
// The original per-row loop is retained as the golden reference in
// serial_test.go; with the chunk span pinned past the sequence length the
// fused datapath degenerates to it bit-for-bit (one chunk, same fold order),
// which the tests pin.

// Chunk-span sizing. cacheBudgetBytes is the per-worker cache budget a
// budget-derived span fits: a typical per-core L2 slice (1 MiB), so one K/V
// chunk (K rows + V rows at FP32) stays resident while a work item streams
// it. It is a constant, not probed from the host, so results replay
// identically across machines. Below minChunkTokens the merge tree is
// deeper than the streaming work it saves; above maxChunkTokens the chunk
// grid stops load-balancing long contexts.
const (
	cacheBudgetBytes = 1 << 20
	minChunkTokens   = 256
	maxChunkTokens   = 65536
)

// chunkSpan returns the K/V chunk length, in tokens, of the datapath's
// range sharding. A positive tokens pins the span; tokens ≤ 0 derives it as
// the largest span whose K rows plus V rows at FP32 fit cacheBudgetBytes,
// clamped to [minChunkTokens, maxChunkTokens]. Either way the span is
// rounded down to a BlockTokens multiple (at least one block). Worker count
// is deliberately not an input: the chunk partition shapes the fixed merge
// tree, so admitting it would break bit-identity across worker counts.
func chunkSpan(headDim, tokens int) int {
	if tokens <= 0 {
		// Per token resident per chunk: one K row + one V row at FP32.
		tokens = min(max(cacheBudgetBytes/(2*4*max(headDim, 1)), minChunkTokens), maxChunkTokens)
	}
	return max(tokens/BlockTokens, 1) * BlockTokens
}

// accelMinParallelWork is the floor, in group·token units, below which the
// grid runs inline on the calling goroutine: dispatching pool workers for a
// few blocks costs more than it saves. A pure function of shape, so it
// cannot perturb results.
const accelMinParallelWork = 16 * 1024

// lane is per-worker scratch: one FP16-quantized K or V block, its
// validity mask and one group row's score·V weights. Lanes live in a
// sync.Pool and are fully overwritten before every read, so reuse can never
// leak state between calls.
type lane struct {
	block []float32 // ≤ BlockTokens rows of the block being streamed
	mask  []bool    // blockMask output for the current block
	ws    []float32 // weights output: nonzero softmax weights of the block
	ts    []int32   // weights output: their token offsets in the block
}

var lanePool = sync.Pool{New: func() any { return new(lane) }}

// quantize rounds rows [lo,hi) of m to FP16 straight into the lane's block
// buffer, one pass that only reads m — the storage-precision emulation of
// one K-Buf/V-Buf fill.
func (ln *lane) quantize(m tensor.Mat, lo, hi int) []float32 {
	if cap(ln.block) < BlockTokens*m.Cols {
		ln.block = make([]float32, BlockTokens*m.Cols)
	}
	return fp16.RoundInto(ln.block, m.Data[lo*m.Cols:hi*m.Cols])
}

// blockMask returns the validity mask for block [lo,hi) in lane scratch:
// user-provided mask entries for real tokens, false for pad positions ≥ s.
// Returns nil if everything in the block is valid.
func (ln *lane) blockMask(mask []bool, lo, hi, s int) []bool {
	if mask == nil && hi <= s {
		return nil
	}
	if cap(ln.mask) < BlockTokens {
		ln.mask = make([]bool, BlockTokens)
	}
	bm := ln.mask[:hi-lo]
	for i := range bm {
		bm[i] = lo+i < s && (mask == nil || mask[lo+i])
	}
	return bm
}

// weights is the softmax normalization unit for one group row of a block:
// it returns w_t = exp(x_t − m) for the row's real-token scores x_t (masked
// tokens read attention.MaskValue), keeping only the nonzero weights, with
// their token offsets, in token order. A zero weight adds nothing, so
// dropping it here is the serial loop's skip. The slices are lane scratch.
func (ln *lane) weights(row []float32, bm []bool, m float64) (ws []float32, ts []int32) {
	if cap(ln.ws) < BlockTokens {
		ln.ws, ln.ts = make([]float32, BlockTokens), make([]int32, BlockTokens)
	}
	ws, ts = ln.ws[:0], ln.ts[:0]
	for t, x := range row {
		if bm != nil && !bm[t] {
			x = attention.MaskValue
		}
		if w := float32(math.Exp(float64(x) - m)); w != 0 {
			ws, ts = append(ws, w), append(ts, int32(t))
		}
	}
	return ws, ts
}

// qkRow is the query-key product unit for one query row over a quantized K
// block kb of len(q)-wide rows: dst[t] = scale·(q·k_t), each dot one
// sequential FP32 chain over the head dimension. Eight tokens run side by
// side (then one at a time for the rest) so their independent chains
// overlap in the FPU and share each load of q, as the hardware's MAC lanes
// do; no chain changes its order. Every product is rounded to FP32
// before its add, so no platform fuses the two.
//
//lint:allow floataccum the per-token dot chains are the modeled 128-lane FP32 MAC array
func qkRow(dst, q, kb []float32, scale float32) {
	d := len(q)
	t := 0
	for ; t+8 <= len(dst); t += 8 {
		k0, k1, k2, k3 := kb[t*d:][:d], kb[(t+1)*d:][:d], kb[(t+2)*d:][:d], kb[(t+3)*d:][:d]
		k4, k5, k6, k7 := kb[(t+4)*d:][:d], kb[(t+5)*d:][:d], kb[(t+6)*d:][:d], kb[(t+7)*d:][:d]
		var a0, a1, a2, a3, a4, a5, a6, a7 float32
		for i, x := range q {
			a0 += float32(x * k0[i])
			a1 += float32(x * k1[i])
			a2 += float32(x * k2[i])
			a3 += float32(x * k3[i])
			a4 += float32(x * k4[i])
			a5 += float32(x * k5[i])
			a6 += float32(x * k6[i])
			a7 += float32(x * k7[i])
		}
		out := dst[t : t+8]
		out[0], out[1], out[2], out[3] = a0*scale, a1*scale, a2*scale, a3*scale
		out[4], out[5], out[6], out[7] = a4*scale, a5*scale, a6*scale, a7*scale
	}
	for ; t < len(dst); t++ {
		krow := kb[t*d:][:d]
		var acc float32
		for i, x := range q {
			acc += float32(x * krow[i])
		}
		dst[t] = acc * scale
	}
}

// svAdd is the score·V product unit for one group row: it adds ws[i]·v_ts[i]
// into arow for each weight in order, v_t being row t of the quantized V
// block vb of len(arow)-wide rows. Four tokens share each load and store of
// an accumulator element, which still sees one FP32 add per token in token
// order — the same bits as adding one token at a time. Every product is
// rounded to FP32 before its add, so no platform fuses the two.
//
//lint:allow floataccum per-chunk score·V slots model the hardware's FP32 accumulators
func svAdd(arow, vb, ws []float32, ts []int32) {
	d := len(arow)
	i := 0
	for ; i+4 <= len(ws); i += 4 {
		w0, w1, w2, w3 := ws[i], ws[i+1], ws[i+2], ws[i+3]
		y0, y1 := vb[int(ts[i])*d:][:d], vb[int(ts[i+1])*d:][:d]
		y2, y3 := vb[int(ts[i+2])*d:][:d], vb[int(ts[i+3])*d:][:d]
		for j := range arow {
			a := arow[j]
			a += float32(w0 * y0[j])
			a += float32(w1 * y1[j])
			a += float32(w2 * y2[j])
			a += float32(w3 * y3[j])
			arow[j] = a
		}
	}
	for ; i < len(ws); i++ {
		w, y := ws[i], vb[int(ts[i])*d:][:d]
		for j := range arow {
			arow[j] += float32(w * y[j])
		}
	}
}

// treeAddVec reduces per-chunk FP32 accumulators with the fixed-shape
// stride-doubling tree: parts[i] absorbs parts[i+stride] element-wise for
// stride 1, 2, 4, …. The combination order depends only on len(parts), so
// goroutine completion order can never reach a bit. Returns parts[0].
//
//lint:allow floataccum fixed-tree FP32 adds mirror the hardware's lane reduction
func treeAddVec(parts [][]float32) []float32 {
	for stride := 1; stride < len(parts); stride *= 2 {
		for i := 0; i+stride < len(parts); i += 2 * stride {
			dst, src := parts[i], parts[i+stride]
			for j := range dst {
				dst[j] += src[j]
			}
		}
	}
	return parts[0]
}

// AttentionWorkers computes Attention with an explicit worker count and
// chunk span. The padded sequence splits into block-aligned chunks of
// chunkSpan(HeadDim, chunkTokens) tokens, one work
// item each; chunkTokens ≤ 0 derives the span from the cache budget.
// Phase 1 quantizes each K block into lane scratch and fills every group
// row's index-owned score slice and block-stat slot from it (query-key
// product + per-block softmax statistics); the per-group statistics then
// fold serially in block order. Phase 2 quantizes each V block once, then
// for each group row turns the block's scores into softmax weights and adds
// the weighted V rows, in token order, into the row's chunk accumulator;
// the accumulators reduce through the fixed tree. Results are bit-identical
// for every workers value, 1 included; Attention delegates here with
// GOMAXPROCS workers and a derived span.
//
//lint:allow floataccum per-chunk score·V slots model the hardware's FP32 accumulators
func (a *Accelerator) AttentionWorkers(q, k, v tensor.Mat, mask []bool, hostScores, hostV tensor.Mat, workers, chunkTokens int) (tensor.Mat, error) {
	if err := a.validateAttention(q, k, v, hostScores, hostV); err != nil {
		return tensor.Mat{}, err
	}

	q = q.Clone().RoundFP16() // dg rows: the only input copied whole
	s := k.Rows
	sPad := PadSequence(s)
	scale := float32(1 / math.Sqrt(float64(a.cfg.HeadDim)))
	nb := (sPad + BlockTokens - 1) / BlockTokens
	span := chunkSpan(a.cfg.HeadDim, chunkTokens)
	nChunks := (sPad + span - 1) / span
	dg, dv := a.cfg.DGroup, v.Cols
	if dg*sPad < accelMinParallelWork {
		workers = 1
	}
	// blocks calls fn for each block [lo,hi) of chunk c, with realHi
	// clipping the padding off the cached tokens.
	blocks := func(c int, fn func(lo, hi, realHi int)) {
		for lo := c * span; lo < min((c+1)*span, sPad); lo += BlockTokens {
			hi := min(lo+BlockTokens, sPad)
			fn(lo, hi, min(hi, s))
		}
	}

	out := tensor.New(q.Rows, dv)

	// Index-owned slots: per-group score rows (SM-Buf contents, stored
	// FP16; pad positions stay 0), per-block softmax statistics,
	// per-(group, chunk) accumulators.
	scores := make([]float32, dg*sPad)
	blockM := make([]float64, dg*nb)
	blockZ := make([]float64, dg*nb)
	accData := make([]float32, dg*nChunks*dv)
	acc := make([][]float32, dg*nChunks)
	for i := range acc {
		acc[i] = accData[i*dv : (i+1)*dv]
	}

	// Phase 1: query-key product unit + per-block statistics. Chunks are
	// block-aligned, so each block's score slices and stat slots have
	// exactly one writer.
	tensor.ParallelFor(nChunks, workers, func(c int) {
		ln := lanePool.Get().(*lane)
		defer lanePool.Put(ln)
		blocks(c, func(lo, hi, realHi int) {
			kb := ln.quantize(k, lo, realHi)
			bm := ln.blockMask(mask, lo, hi, s)
			b := lo / BlockTokens
			for g := 0; g < dg; g++ {
				row := scores[g*sPad+lo : g*sPad+hi]
				qkRow(row[:realHi-lo], q.Row(g), kb, scale)
				// Hardware stores QKᵀ results at FP16 before the softmax
				// reads them back from SM-Buf.
				fp16.RoundSlice(row)
				blockM[g*nb+b], blockZ[g*nb+b] = attention.BlockStats(row, bm)
			}
		})
	})

	// Per-group serial fold of block statistics in index order — the same
	// association as the serial dataflow — then the host delayed-writeback
	// partial merge.
	stats := make([]attention.Stats, dg)
	partials := make([]attention.Partial, dg)
	for g := 0; g < dg; g++ {
		st := attention.NewStats()
		for b := 0; b < nb; b++ {
			st.UpdateBlock(blockM[g*nb+b], blockZ[g*nb+b])
		}
		if hostScores.Rows > 0 {
			hp := attention.PartialFromScores(hostScores.Row(g), hostV)
			partials[g] = hp
			st.Merge(hp.Stats)
		}
		stats[g] = st
	}

	// Phase 2: softmax normalization + score-value product units. Each V
	// block is filled once and shared by every group row; each (group,
	// chunk) accumulator still adds its tokens in order, with the settled
	// global max.
	tensor.ParallelFor(nChunks, workers, func(c int) {
		ln := lanePool.Get().(*lane)
		defer lanePool.Put(ln)
		blocks(c, func(lo, hi, realHi int) {
			vb := ln.quantize(v, lo, realHi)
			bm := ln.blockMask(mask, lo, hi, s)
			for g := 0; g < dg; g++ {
				ws, ts := ln.weights(scores[g*sPad+lo:g*sPad+realHi], bm, stats[g].M)
				svAdd(acc[g*nChunks+c][:dv], vb, ws, ts)
			}
		})
	})

	// Fixed-tree merge per group, then the host partial fold and the global
	// normalization (second pass, line 11).
	for g := 0; g < dg; g++ {
		orow := out.Row(g)
		if nChunks > 0 {
			copy(orow, treeAddVec(acc[g*nChunks:(g+1)*nChunks]))
		}
		st := stats[g]
		if hostScores.Rows > 0 {
			r := float32(math.Exp(partials[g].Stats.M - st.M))
			for j := range orow {
				orow[j] += float32(partials[g].Acc[j] * r)
			}
		}
		inv := float32(1 / st.Z)
		for j := range orow {
			orow[j] *= inv
		}
	}
	return out, nil
}
