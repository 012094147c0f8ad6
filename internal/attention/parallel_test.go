package attention

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/tensor"
)

// matsEqual reports bit-identity (reflect.DeepEqual on the backing data).
func matsEqual(a, b tensor.Mat) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && reflect.DeepEqual(a.Data, b.Data)
}

var workerCounts = []int{1, 2, 3, 8}

// The bit-identity tests pin small chunk spans so small inputs exercise
// many-chunk dataflows (chunk partials + tree merge).

// TestBlockedWorkersBitIdentical: for shapes spanning prefill (many rows),
// decode (one row, long context), ragged tails and tiny blocks, every worker
// count must produce bit-identical output — the fixed-shape tree merge and
// index-owned partials make the result a pure function of shape.
func TestBlockedWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	shapes := []struct{ rows, s, d, bs int }{
		{1, 1000, 32, 64},  // decode: 1 row, many chunks
		{1, 37, 16, 8},     // ragged tail
		{7, 300, 24, 32},   // prefill: rows × chunks grid
		{16, 64, 16, 128},  // blockSize > context
		{3, 513, 8, 1},     // blockSize 1
		{2, 4096, 16, 128}, // above minParallelWork with default chunks
	}
	const chunk = 128
	for _, sh := range shapes {
		q := tensor.RandMat(rng, sh.rows, sh.d, 1)
		k := tensor.RandMat(rng, sh.s, sh.d, 1)
		v := tensor.RandMat(rng, sh.s, sh.d, 1)
		var mask []bool
		if sh.s > 10 {
			mask = make([]bool, sh.s)
			for i := range mask {
				mask[i] = rng.Intn(8) != 0
			}
		}
		base := BlockedWorkers(q, k, v, mask, sh.bs, 1, chunk)
		for _, w := range workerCounts[1:] {
			got := BlockedWorkers(q, k, v, mask, sh.bs, w, chunk)
			if !matsEqual(base, got) {
				t.Fatalf("shape %+v: workers=%d differs from workers=1", sh, w)
			}
		}
		// Sanity anchor: parallel output still matches the exact reference.
		ref := Ref(q, k, v, mask)
		if d := tensor.MaxAbsDiff(base, ref); d > tol {
			t.Fatalf("shape %+v: parallel differs from Ref by %v", sh, d)
		}
	}
}

// TestTopKBlocksWorkersBitIdentical covers both parallel dataflows: the
// multi-row row shard and the single-row chunked score+pool phase.
func TestTopKBlocksWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	const chunk = 64
	for _, sh := range []struct{ rows, s, d, keep, bs int }{
		{1, 800, 16, 5, 16}, // decode: chunked phase 1
		{1, 801, 16, 3, 16}, // ragged tail
		{6, 400, 16, 4, 32}, // row shard
		{3, 100, 8, 99, 16}, // keep-everything degenerate
	} {
		q := tensor.RandMat(rng, sh.rows, sh.d, 1)
		k := tensor.RandMat(rng, sh.s, sh.d, 1)
		v := tensor.RandMat(rng, sh.s, sh.d, 1)
		base := TopKBlocksWorkers(q, k, v, nil, sh.keep, sh.bs, 1, chunk)
		for _, w := range workerCounts[1:] {
			got := TopKBlocksWorkers(q, k, v, nil, sh.keep, sh.bs, w, chunk)
			if !matsEqual(base, got) {
				t.Fatalf("shape %+v: workers=%d differs from workers=1", sh, w)
			}
		}
	}
}

// TestChunkPartitionPureFunctionOfShape: the chunk grid may depend on shape
// and the chunk-span argument only — never on worker count — and must tile
// the token range exactly for every (headDim, blockSize) pair.
func TestChunkPartitionPureFunctionOfShape(t *testing.T) {
	for _, d := range []int{1, 8, 64, 128, 4096} {
		for _, bs := range []int{1, 16, 128, 4096, 100000} {
			span := ChunkSpan(d, bs, 0)
			if span < bs || span%bs != 0 {
				t.Fatalf("headDim %d blockSize %d: span %d not a positive multiple", d, bs, span)
			}
			for _, kRows := range []int{1, bs, bs + 1, 3*span - 1, 3 * span} {
				n := chunkCountFor(kRows, span)
				if (n-1)*span >= kRows || n*span < kRows {
					t.Fatalf("headDim %d blockSize %d kRows %d: %d chunks of span %d do not tile", d, bs, kRows, n, span)
				}
			}
		}
	}
}

// TestChunkSpanSizing: the derived span fits K+V rows at FP32 in
// cacheBudgetBytes, scales inversely with head dimension, stays inside the
// clamp, and yields to a positive tokens pin (rounded down to a block).
func TestChunkSpanSizing(t *testing.T) {
	for _, c := range []struct{ d, bs, tokens, want int }{
		{64, 128, 0, 2048},             // 1 MiB / (2·64·4)
		{128, 128, 0, 1024},            // 1 MiB / (2·128·4)
		{1024, 128, 0, minChunkTokens}, // 128 tokens clamped up to the floor
		{1, 128, 0, maxChunkTokens},    // 131072 tokens clamped down to the ceiling
		{64, 128, 600, 512},            // pin, block-aligned
		{64, 128, -5, 2048},            // non-positive pin derives from the budget
		{64, 1000, 600, 1000},          // pin below one block: one block
	} {
		if got := ChunkSpan(c.d, c.bs, c.tokens); got != c.want {
			t.Errorf("ChunkSpan(%d, %d, %d) = %d, want %d", c.d, c.bs, c.tokens, got, c.want)
		}
	}
}

// TestTreeMergeFixedShape: the tree reduction must equal a left-to-right
// serial fold of the same per-chunk partials... not bitwise (that is exactly
// the point of fixing the shape), but within FP32 tolerance — and repeated
// runs over the same parts layout must be bitwise stable.
func TestTreeMergeMatchesSerialFold(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, nChunks := range []int{1, 2, 3, 5, 8, 13} {
		s, dv := nChunks*20, 8
		k := tensor.RandMat(rng, s, dv, 1)
		v := tensor.RandMat(rng, s, dv, 1)
		q := tensor.RandMat(rng, 1, dv, 1)
		build := func() []Partial {
			parts := make([]Partial, nChunks)
			for c := range parts {
				parts[c] = NewPartial(dv)
				blk := make([]float32, 20)
				chunkPartial(&parts[c], q.Row(0), k, v, nil, 0.25, 20, c*20, (c+1)*20, blk)
			}
			return parts
		}
		serial := build()
		whole := &serial[0]
		for i := 1; i < len(serial); i++ {
			whole.Merge(serial[i])
		}
		tree1 := treeMerge(build())
		tree2 := treeMerge(build())
		if !reflect.DeepEqual(tree1.Acc, tree2.Acc) || tree1.Stats != tree2.Stats {
			t.Fatalf("nChunks=%d: tree merge not deterministic", nChunks)
		}
		f1, f2 := whole.Finalize(), tree1.Finalize()
		for i := range f1 {
			if d := math.Abs(float64(f1[i]) - float64(f2[i])); d > tol {
				t.Fatalf("nChunks=%d: tree vs serial fold differ at %d by %v", nChunks, i, d)
			}
		}
	}
}

// FuzzParallelBlockedEquivalence fuzzes shapes, block sizes and chunk
// lengths, asserting multi-worker Blocked stays bit-identical to its
// one-worker run.
func FuzzParallelBlockedEquivalence(f *testing.F) {
	f.Add(int64(1), 1, 300, 32, 40)
	f.Add(int64(2), 5, 100, 16, 16)
	f.Add(int64(3), 2, 65, 1, 7)
	f.Fuzz(func(t *testing.T, seed int64, rows, s, bs, chunk int) {
		if rows < 1 || rows > 8 || s < 1 || s > 1024 || bs < 1 || bs > 256 || chunk < 1 || chunk > 512 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		q := tensor.RandMat(rng, rows, 16, 1)
		k := tensor.RandMat(rng, s, 16, 1)
		v := tensor.RandMat(rng, s, 16, 1)
		base := BlockedWorkers(q, k, v, nil, bs, 1, chunk)
		for _, w := range []int{2, 3, 8} {
			if got := BlockedWorkers(q, k, v, nil, bs, w, chunk); !matsEqual(base, got) {
				t.Fatalf("rows=%d s=%d bs=%d chunk=%d: Blocked workers=%d diverged", rows, s, bs, chunk, w)
			}
		}
	})
}
