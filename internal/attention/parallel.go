package attention

import (
	"math"
	"sync"

	"repro/internal/tensor"
)

// This file implements the parallel block dataflow of the attention kernels:
// Blocked and TopKBlocks shard their work across the kernel worker pool
// (tensor.ParallelFor) while staying bit-identical to a serial run for every
// worker count. Two invariants make that hold:
//
//   - Partitioning is a pure function of the call's arguments. The K/V range
//     is split into block-aligned chunks of ChunkSpan(headDim, blockSize,
//     chunkTokens) tokens regardless of how many workers will run them, and
//     the (query row × chunk) work items each own one Partial slot —
//     index-ordered assembly, never a shared accumulator.
//   - Reduction order is fixed. Chunk partials merge through a fixed-shape
//     binary tree (treeMerge): parts[i] absorbs parts[i+stride] for stride
//     1, 2, 4, …, a combination order determined by the chunk count alone.
//     Goroutine completion order can therefore never reach a float32 bit.
//
// Worker scratch (score buffers, per-row top-k state) and the per-call chunk
// partials are drawn from sync.Pool arenas, so steady-state calls allocate
// only the output matrix and one job descriptor.

// minParallelWork is the floor, in query-row·token units, below which the
// kernels run their (identical) dataflow inline: borrowing pool workers for
// a few thousand dot products costs more than it saves. The cutoff is a
// pure function of shape, so it cannot perturb results.
const minParallelWork = 16 * 1024

// Chunk-span sizing. cacheBudgetBytes is the per-worker cache budget a
// budget-derived span fits: a typical per-core L2 slice (1 MiB), so one K/V
// chunk (K rows + V rows at FP32) stays resident while a work item folds it.
// It is a constant, not probed from the host, so results replay identically
// across machines. Below minChunkTokens the merge tree is deeper than the
// fold work it saves; above maxChunkTokens the (row × chunk) grid stops
// load-balancing long contexts.
const (
	cacheBudgetBytes = 1 << 20
	minChunkTokens   = 256
	maxChunkTokens   = 65536
)

// ChunkSpan returns the K/V chunk length, in tokens, used for range
// sharding. A positive tokens pins the span; tokens ≤ 0 derives it as the
// largest span whose K rows plus V rows at FP32 fit cacheBudgetBytes,
// clamped to [minChunkTokens, maxChunkTokens]. Either way the span is
// rounded down to a blockSize multiple (at least one block).
//
// Worker count is deliberately NOT an input: the chunk partition shapes the
// fixed merge tree, so admitting workers would break the bit-identity of
// parallel results across worker counts — the invariant the whole dataflow
// is built around.
func ChunkSpan(headDim, blockSize, tokens int) int {
	if blockSize <= 0 {
		blockSize = 128
	}
	if tokens <= 0 {
		// Per token resident per fold: one K row + one V row at FP32.
		tokens = min(max(cacheBudgetBytes/(2*4*max(headDim, 1)), minChunkTokens), maxChunkTokens)
	}
	return max(tokens/blockSize, 1) * blockSize
}

// chunkCountFor returns the number of K/V range chunks for kRows tokens at
// the given span.
func chunkCountFor(kRows, span int) int {
	return (kRows + span - 1) / span
}

// lane is per-worker scratch: a block score buffer for the chunk kernels and
// the full-range score/selection state for per-row top-k. Lanes live in a
// sync.Pool arena and are fully overwritten before every read, so reuse can
// never leak state between calls.
type lane struct {
	block      []float32 // ≥ blockSize score scratch for one K/V block
	scores     []float32 // ≥ kRows full-range scores (top-k row path)
	blockScore []float32 // ≥ nBlocks pooled block scores (top-k row path)
	part       Partial   // per-row partial (top-k row path)
}

var lanePool = sync.Pool{New: func() any { return new(lane) }}

func getLane() *lane  { return lanePool.Get().(*lane) }
func putLane(l *lane) { lanePool.Put(l) }

// growF ensures a float32 scratch slice has exactly length n.
func growF(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}

// mergeScratch holds one call's chunk partials — one Partial per
// (query row × chunk) work item — between the parallel fill phase and the
// serial tree-merge. Pooled so steady-state calls reuse both the slice and
// every accumulator.
type mergeScratch struct {
	parts []Partial
}

var mergePool = sync.Pool{New: func() any { return new(mergeScratch) }}

// getMerge returns a scratch with n identity partials of value dimension dv.
func getMerge(n, dv int) *mergeScratch {
	ms := mergePool.Get().(*mergeScratch)
	if cap(ms.parts) < n {
		ms.parts = make([]Partial, n)
	} else {
		ms.parts = ms.parts[:n]
	}
	for i := range ms.parts {
		p := &ms.parts[i]
		p.Acc = growF(p.Acc, dv)
		p.Reset()
	}
	return ms
}

func putMerge(ms *mergeScratch) { mergePool.Put(ms) }

// treeMerge reduces chunk partials with a fixed-shape binary tree: parts[i]
// absorbs parts[i+stride] for stride 1, 2, 4, …. The float32 combination
// order is a pure function of len(parts) — never of which goroutine
// finished first — which is what keeps parallel results bit-identical to a
// one-worker run. Returns the root (parts[0]).
func treeMerge(parts []Partial) *Partial {
	for stride := 1; stride < len(parts); stride *= 2 {
		for i := 0; i+stride < len(parts); i += 2 * stride {
			parts[i].Merge(parts[i+stride])
		}
	}
	return &parts[0]
}

// chunkPartial folds K/V rows [lo, hi) into p for one query row, walking the
// range in blockSize blocks exactly as the serial Blocked loop does: scores
// for one block into blk, then one Partial.AddBlock (≤ 1 accumulator rescale
// per block).
func chunkPartial(p *Partial, qrow []float32, k, v tensor.Mat, mask []bool, scale float32, blockSize, lo, hi int, blk []float32) {
	for bl := lo; bl < hi; bl += blockSize {
		bh := bl + blockSize
		if bh > hi {
			bh = hi
		}
		s := blk[:bh-bl]
		for ki := bl; ki < bh; ki++ {
			s[ki-bl] = applyMask(tensor.Dot(qrow, k.Row(ki))*scale, mask, ki)
		}
		p.AddBlock(s, v, bl)
	}
}

// BlockedWorkers computes Blocked attention with an explicit worker count
// and chunk span (chunkTokens, as in ChunkSpan; ≤ 0 derives it). Query rows
// and block-aligned K/V chunks form a (row × chunk) work grid; each item
// computes one chunk partial, and each row's partials reduce through the
// fixed tree. Results are bit-identical for every workers value (1
// included); Blocked delegates here with GOMAXPROCS workers and a derived
// span.
func BlockedWorkers(q, k, v tensor.Mat, mask []bool, blockSize, workers, chunkTokens int) tensor.Mat {
	if blockSize <= 0 {
		blockSize = 128
	}
	scale := float32(1 / math.Sqrt(float64(q.Cols)))
	out := tensor.New(q.Rows, v.Cols)
	if k.Rows == 0 || q.Rows == 0 {
		return out
	}
	span := ChunkSpan(q.Cols, blockSize, chunkTokens)
	nChunks := chunkCountFor(k.Rows, span)
	if q.Rows*k.Rows < minParallelWork {
		workers = 1
	}
	ms := getMerge(q.Rows*nChunks, v.Cols)
	tensor.ParallelFor(q.Rows*nChunks, workers, func(it int) {
		qi, c := it/nChunks, it%nChunks
		lo := c * span
		hi := lo + span
		if hi > k.Rows {
			hi = k.Rows
		}
		ln := getLane()
		ln.block = growF(ln.block, blockSize)
		chunkPartial(&ms.parts[it], q.Row(qi), k, v, mask, scale, blockSize, lo, hi, ln.block)
		putLane(ln)
	})
	for qi := 0; qi < q.Rows; qi++ {
		p := treeMerge(ms.parts[qi*nChunks : (qi+1)*nChunks])
		p.FinalizeInto(out.Row(qi))
	}
	putMerge(ms)
	return out
}

// topKBlocksRow runs the full serial per-row TopKBlocks dataflow for one
// query row using lane-local scratch: score every cached token, mean-pool
// blocks in float64, select keepBlocks deterministically, attend over the
// kept blocks in selection order.
func topKBlocksRow(ln *lane, qrow []float32, k, v tensor.Mat, mask []bool, scale float32, keepBlocks, blockSize, nBlocks int, orow []float32) {
	scores := ln.scores
	blockScore := ln.blockScore
	for ki := 0; ki < k.Rows; ki++ {
		scores[ki] = applyMask(tensor.Dot(qrow, k.Row(ki))*scale, mask, ki)
	}
	for b := 0; b < nBlocks; b++ {
		lo, hi := b*blockSize, (b+1)*blockSize
		if hi > k.Rows {
			hi = k.Rows
		}
		blockScore[b] = poolBlock(scores, lo, hi)
	}
	keep := topKIndices(blockScore, keepBlocks)
	p := &ln.part
	p.Acc = growF(p.Acc, v.Cols)
	p.Reset()
	for _, b := range keep {
		lo, hi := b*blockSize, (b+1)*blockSize
		if hi > k.Rows {
			hi = k.Rows
		}
		p.AddBlock(scores[lo:hi], v, lo)
	}
	p.FinalizeInto(orow)
}

// poolBlock mean-pools scores[lo:hi] in float64 so block ranking does not
// depend on float32 rounding of the partial sums (hilos-lint: floataccum).
func poolBlock(scores []float32, lo, hi int) float32 {
	var sum float64
	for i := lo; i < hi; i++ {
		sum += float64(scores[i])
	}
	return float32(sum / float64(hi-lo))
}

// TopKBlocksWorkers computes lossy block-sparse attention with an explicit
// worker count and chunk span (chunkTokens, as in BlockedWorkers). Multi-row calls shard query rows (each row runs the full
// serial dataflow on lane scratch); the single-row decode shape instead
// parallelizes the score+pool phase over block-aligned chunks — every score
// and pooled block mean lands in an index-owned slot — and keeps the
// selection and kept-block attention serial, in deterministic selection
// order. Both dataflows produce bit-identical results to a one-worker run.
func TopKBlocksWorkers(q, k, v tensor.Mat, mask []bool, keepBlocks, blockSize, workers, chunkTokens int) tensor.Mat {
	if blockSize <= 0 {
		blockSize = 16
	}
	scale := float32(1 / math.Sqrt(float64(q.Cols)))
	nBlocks := (k.Rows + blockSize - 1) / blockSize
	out := tensor.New(q.Rows, v.Cols)
	if k.Rows == 0 || q.Rows == 0 {
		return out
	}
	if q.Rows*k.Rows < minParallelWork {
		workers = 1
	}
	if q.Rows > 1 {
		tensor.ParallelFor(q.Rows, workers, func(qi int) {
			ln := getLane()
			ln.scores = growF(ln.scores, k.Rows)
			ln.blockScore = growF(ln.blockScore, nBlocks)
			topKBlocksRow(ln, q.Row(qi), k, v, mask, scale, keepBlocks, blockSize, nBlocks, out.Row(qi))
			putLane(ln)
		})
		return out
	}

	// Single query row: phase 1 (scores + pooled block means) in parallel
	// over chunks, phases 2–3 (selection, kept-block attention) serial.
	qrow := q.Row(0)
	span := ChunkSpan(q.Cols, blockSize, chunkTokens)
	nChunks := chunkCountFor(k.Rows, span)
	ln := getLane()
	ln.scores = growF(ln.scores, k.Rows)
	ln.blockScore = growF(ln.blockScore, nBlocks)
	scores, blockScore := ln.scores, ln.blockScore
	tensor.ParallelFor(nChunks, workers, func(c int) {
		lo := c * span
		hi := lo + span
		if hi > k.Rows {
			hi = k.Rows
		}
		for ki := lo; ki < hi; ki++ {
			scores[ki] = applyMask(tensor.Dot(qrow, k.Row(ki))*scale, mask, ki)
		}
		// Chunks are block-aligned, so every block [blo, bhi) lies in
		// exactly one chunk and its pooled mean has a single writer.
		for b := lo / blockSize; b*blockSize < hi; b++ {
			blo, bhi := b*blockSize, (b+1)*blockSize
			if bhi > k.Rows {
				bhi = k.Rows
			}
			blockScore[b] = poolBlock(scores, blo, bhi)
		}
	})
	keep := topKIndices(blockScore, keepBlocks)
	p := &ln.part
	p.Acc = growF(p.Acc, v.Cols)
	p.Reset()
	for _, b := range keep {
		lo, hi := b*blockSize, (b+1)*blockSize
		if hi > k.Rows {
			hi = k.Rows
		}
		p.AddBlock(scores[lo:hi], v, lo)
	}
	p.FinalizeInto(out.Row(0))
	putLane(ln)
	return out
}
