package accel

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/attention"
	"repro/internal/tensor"
)

// accelEqual reports whether a and b have the same shape and the same bits
// in every element, so NaNs and signed zeros compare too.
func accelEqual(a, b tensor.Mat) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.Data) != len(b.Data) {
		return false
	}
	for i, x := range a.Data {
		if math.Float32bits(x) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// offFastPath plants values that FP16 storage rounds off its normal-range
// fast path into m, every 7th row from row `from`: a subnormal-range row,
// a zero, magnitudes just past 65504 (which round to 65504) and, when inf
// is set, one that rounds to ±Inf. The other elements keep their random
// low mantissa bits.
func offFastPath(m tensor.Mat, from int, inf bool) {
	for r := from; r < m.Rows; r += 7 {
		row := m.Row(r)
		switch r / 7 % 3 {
		case 0:
			for i := range row {
				row[i] *= 1e-6
			}
		case 1:
			row[0], row[len(row)-1] = 0, -65510
		case 2:
			row[len(row)/2] = 65515
			if inf {
				row[0] = -70000
			}
		}
	}
}

// TestAttentionWorkersBitIdentical: the chunk-sharded datapath must produce
// bit-identical output for every worker count, with and without a mask, for
// shapes spanning single-block, ragged-tail, many-chunk and above-work-floor
// grids. The span is pinned to two hardware blocks so even short sequences
// exercise multi-chunk merges.
func TestAttentionWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	shapes := []struct{ dg, s, d int }{
		{1, 100, 32},  // sub-block, one chunk
		{2, 300, 16},  // ragged tail, two chunks
		{4, 1000, 64}, // many chunks
		{8, 4096, 16}, // above accelMinParallelWork: pool actually engaged
		{3, 513, 128}, // max head dim, ragged
	}
	const chunk = 2 * BlockTokens
	for _, sh := range shapes {
		acc, err := New(Config{DGroup: sh.dg, HeadDim: sh.d})
		if err != nil {
			t.Fatal(err)
		}
		q := tensor.RandMat(rng, sh.dg, sh.d, 1)
		k := tensor.RandMat(rng, sh.s, sh.d, 1)
		v := tensor.RandMat(rng, sh.s, sh.d, 1)
		var mask []bool
		if sh.s > 200 {
			mask = make([]bool, sh.s)
			for i := range mask {
				mask[i] = rng.Intn(8) != 0
			}
		}
		base, err := acc.AttentionWorkers(q, k, v, mask, tensor.Mat{}, tensor.Mat{}, 1, chunk)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 3, 8} {
			got, err := acc.AttentionWorkers(q, k, v, mask, tensor.Mat{}, tensor.Mat{}, w, chunk)
			if err != nil {
				t.Fatal(err)
			}
			if !accelEqual(base, got) {
				t.Fatalf("shape %+v: workers=%d differs from workers=1", sh, w)
			}
		}
	}
}

// TestAttentionWorkersHostPartialBitIdentical: the delayed-writeback merge
// (host partial stats + accumulator fold) happens outside the parallel
// phases and must not break worker-count invariance.
func TestAttentionWorkersHostPartialBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	acc, err := New(Config{DGroup: 4, HeadDim: 32})
	if err != nil {
		t.Fatal(err)
	}
	q := tensor.RandMat(rng, 4, 32, 1)
	k := tensor.RandMat(rng, 700, 32, 1)
	v := tensor.RandMat(rng, 700, 32, 1)
	hostV := tensor.RandMat(rng, 9, 32, 1)
	hostScores := tensor.RandMat(rng, 4, 9, 1)
	const chunk = 2 * BlockTokens
	base, err := acc.AttentionWorkers(q, k, v, nil, hostScores, hostV, 1, chunk)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8} {
		got, err := acc.AttentionWorkers(q, k, v, nil, hostScores, hostV, w, chunk)
		if err != nil {
			t.Fatal(err)
		}
		if !accelEqual(base, got) {
			t.Fatalf("host partial: workers=%d differs from workers=1", w)
		}
	}
}

// TestAttentionWorkersOneChunkMatchesSerial: with the span pinned past the
// sequence length the grid collapses to one chunk per group and the parallel
// datapath must reproduce the retained serial reference bit-for-bit — the
// same block fold order, the same single accumulator. The cases reach every
// path of the register-blocked lanes: last blocks with every token count
// mod 8, ragged block tails, masks and host partials, a query scale wide
// enough that unmasked weights underflow to 0, and K/V off the FP16 fast
// path (subnormal-range rows, magnitudes past 65504, ±Inf in V).
func TestAttentionWorkersOneChunkMatchesSerial(t *testing.T) {
	type oneChunkCase struct {
		dg, s, d  int
		qSigma    float64
		mask      bool
		hostRows  int
		offFastKV bool
	}
	cases := []oneChunkCase{
		{1, 300, 64, 1, false, 0, false},
		{4, 513, 32, 1, false, 0, false},
		{2, 64, 16, 1, false, 0, false},
		{4, 384, 128, 40, false, 0, false}, // wide scores: weights underflow
		{3, 700, 32, 8, true, 5, false},
		{2, 453, 64, 1, true, 3, true},
		{4, 260, 128, 1, false, 16, true},
	}
	// s mod 8 = r, with s mod 128 ragged: every qkRow remainder path.
	for r := 1; r <= 7; r++ {
		cases = append(cases, oneChunkCase{1 + r%4, 128*(r%3) + 9*r, 16 << (r % 4), 1, r%2 == 1, 4 * (r % 3), r%3 == 0})
	}
	rng := rand.New(rand.NewSource(72))
	const chunk = 1 << 20
	for _, c := range cases {
		acc, err := New(Config{DGroup: c.dg, HeadDim: c.d})
		if err != nil {
			t.Fatal(err)
		}
		q := tensor.RandMat(rng, c.dg, c.d, c.qSigma)
		k := tensor.RandMat(rng, c.s, c.d, 1)
		v := tensor.RandMat(rng, c.s, c.d, 1)
		if c.offFastKV {
			offFastPath(k, 2, false)
			offFastPath(v, 4, true)
		}
		var mask []bool
		if c.mask {
			mask = make([]bool, c.s)
			for i := range mask {
				mask[i] = rng.Intn(5) != 0
			}
		}
		var hostScores, hostV tensor.Mat
		if c.hostRows > 0 {
			hostScores = tensor.RandMat(rng, c.dg, c.hostRows, 1)
			hostV = tensor.RandMat(rng, c.hostRows, c.d, 1)
		}
		if c.qSigma > 8 && !someWeightUnderflows(q, k) {
			t.Fatalf("case %+v: no weight underflows to 0; the case would prove nothing", c)
		}
		want, err := acc.attentionSerial(q, k, v, mask, hostScores, hostV)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 8} {
			got, err := acc.AttentionWorkers(q, k, v, mask, hostScores, hostV, w, chunk)
			if err != nil {
				t.Fatal(err)
			}
			if !accelEqual(want, got) {
				t.Fatalf("case %+v workers=%d: one-chunk parallel differs from serial reference", c, w)
			}
		}
	}
}

// someWeightUnderflows reports whether some FP16 token's softmax weight
// exp(x − max) rounds to 0 in FP32 for some query row.
func someWeightUnderflows(q, k tensor.Mat) bool {
	sc := attention.Scores(q.Clone().RoundFP16(), k.Clone().RoundFP16())
	for r := 0; r < sc.Rows; r++ {
		row := sc.Row(r)
		m := row[0]
		for _, x := range row {
			m = max(m, x)
		}
		for _, x := range row {
			if float32(math.Exp(float64(x)-float64(m))) == 0 {
				return true
			}
		}
	}
	return false
}

// TestAttentionWorkersLeavesInputs: K/V are rounded block by block straight
// into lane scratch and q in a private copy, so inputs that are not
// FP16-representable — fast-path values with low mantissa bits, and values
// the round trip handles (subnormal range, past 65504) — come back
// bit-for-bit unmodified. The fused fill itself must equal rounding a copy
// of the rows, on ragged windows and in a lane last filled with a longer
// block.
func TestAttentionWorkersLeavesInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	acc := newAccel(t, 4, 64)
	q := tensor.RandMat(rng, 4, 64, 1)
	k := tensor.RandMat(rng, 700, 64, 1)
	v := tensor.RandMat(rng, 700, 64, 1)
	offFastPath(k, 3, true)
	offFastPath(v, 0, true)
	mask := make([]bool, k.Rows)
	for i := range mask {
		mask[i] = i%9 != 0
	}
	hostScores := tensor.RandMat(rng, 4, 5, 1)
	hostV := tensor.RandMat(rng, 5, 64, 1)
	ins := []tensor.Mat{q, k, v, hostScores, hostV}
	want := make([]tensor.Mat, len(ins))
	for i, m := range ins {
		want[i] = m.Clone()
	}
	if accelEqual(k.Clone().RoundFP16(), k) {
		t.Fatal("inputs are already FP16; the test would prove nothing")
	}
	for _, w := range []int{1, 3} {
		for _, mk := range [][]bool{nil, mask} {
			if _, err := acc.AttentionWorkers(q, k, v, mk, hostScores, hostV, w, 0); err != nil {
				t.Fatal(err)
			}
			for i, m := range ins {
				if !accelEqual(m, want[i]) {
					t.Fatalf("workers=%d mask=%t: input %d modified", w, mk != nil, i)
				}
			}
		}
	}

	rounded := k.Clone().RoundFP16()
	ln := new(lane)
	for _, span := range [][2]int{{0, 128}, {640, 700}, {7, 8}, {128, 256}, {699, 700}} {
		lo, hi := span[0], span[1]
		got := tensor.Mat{Rows: hi - lo, Cols: k.Cols, Data: ln.quantize(k, lo, hi)}
		wantRows := tensor.Mat{Rows: hi - lo, Cols: k.Cols, Data: rounded.Data[lo*k.Cols : hi*k.Cols]}
		if !accelEqual(got, wantRows) {
			t.Fatalf("quantize rows [%d,%d) differ from rounding a copy", lo, hi)
		}
		if !accelEqual(k, want[1]) {
			t.Fatalf("quantize rows [%d,%d) modified K", lo, hi)
		}
	}
}

// TestBlockedUnitsMatchSerial pins the register-blocked units bit for bit
// against the serial loops before any FP16 rounding, which would hide a
// last-bit change in a dot chain: qkRow against the reference qkBlock, and
// svAdd against one FP32 add per token in token order, for every token
// count from 0 to 20 (the 8-token lanes, the 4-token adds and every
// remainder).
func TestBlockedUnitsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	const d = 37
	acc, err := New(Config{DGroup: 1, HeadDim: d})
	if err != nil {
		t.Fatal(err)
	}
	q := tensor.RandMat(rng, 1, d, 1).Row(0)
	for n := 0; n <= 20; n++ {
		kv := tensor.RandMat(rng, n, d, 1)
		got := make([]float32, n)
		qkRow(got, q, kv.Data, 0.125)
		want := acc.qkBlock(q, kv, 0, n, 0.125)
		if !accelEqual(tensor.Mat{Rows: 1, Cols: n, Data: want}, tensor.Mat{Rows: 1, Cols: n, Data: got}) {
			t.Fatalf("n=%d: qkRow differs from the serial qkBlock", n)
		}

		ws, ts := make([]float32, n), make([]int32, n)
		for i := range ws {
			ws[i], ts[i] = float32(rng.ExpFloat64()), int32(n-1-i)
		}
		arow := tensor.RandMat(rng, 1, d, 1)
		ref := arow.Clone()
		svAdd(arow.Row(0), kv.Data, ws, ts)
		r := ref.Row(0)
		for i, w := range ws {
			y := kv.Row(int(ts[i]))
			for j := range r {
				r[j] += float32(w * y[j])
			}
		}
		if !accelEqual(ref, arow) {
			t.Fatalf("n=%d: svAdd differs from one add per token", n)
		}
	}
}

// TestTreeAddVecFixedShape: the vector tree reduction must be a pure
// function of the slot count — identical bits on identical inputs — and
// must equal a serial left fold within FP32 tolerance.
func TestTreeAddVecFixedShape(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		build := func() [][]float32 {
			rs := rand.New(rand.NewSource(int64(n)))
			parts := make([][]float32, n)
			for i := range parts {
				parts[i] = make([]float32, 16)
				for j := range parts[i] {
					parts[i][j] = float32(rs.NormFloat64())
				}
			}
			return parts
		}
		serial := make([]float64, 16)
		for _, p := range build() {
			for j, x := range p {
				serial[j] += float64(x)
			}
		}
		a := treeAddVec(build())
		b := treeAddVec(build())
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("n=%d: treeAddVec not deterministic", n)
		}
		for j := range a {
			if d := float64(a[j]) - serial[j]; d > 1e-4 || d < -1e-4 {
				t.Fatalf("n=%d: tree sum %v vs serial fold %v at %d", n, a[j], serial[j], j)
			}
		}
	}
}

// TestChunkSpanSizing: the derived span fits K+V rows at FP32 in
// cacheBudgetBytes, scales inversely with head dimension, stays inside the
// clamp, and yields to a positive tokens pin (rounded down to a block).
func TestChunkSpanSizing(t *testing.T) {
	for _, c := range []struct{ d, tokens, want int }{
		{64, 0, 2048},             // 1 MiB / (2·64·4)
		{128, 0, 1024},            // 1 MiB / (2·128·4)
		{1024, 0, minChunkTokens}, // 128 tokens clamped up to the floor
		{1, 0, maxChunkTokens},    // 131072 tokens clamped down to the ceiling
		{64, 600, 512},            // pin, block-aligned
		{64, -5, 2048},            // non-positive pin derives from the budget
		{64, 100, BlockTokens},    // pin below one block: one block
	} {
		if got := chunkSpan(c.d, c.tokens); got != c.want {
			t.Errorf("chunkSpan(%d, %d) = %d, want %d", c.d, c.tokens, got, c.want)
		}
	}
}

// FuzzAccelParallelEquivalence fuzzes group counts, sequence lengths, head
// dims and chunk spans, asserting multi-worker runs stay bit-identical to
// one-worker runs of the same grid, and, whenever the span covers the whole
// sequence (one chunk), to the serial reference as well.
func FuzzAccelParallelEquivalence(f *testing.F) {
	f.Add(int64(1), 2, 300, 16, 128)
	f.Add(int64(2), 1, 129, 64, 256)
	f.Add(int64(3), 8, 1024, 8, 384)
	f.Add(int64(4), 3, 261, 128, 4096)
	f.Add(int64(5), 4, 7, 32, 128)
	f.Fuzz(func(t *testing.T, seed int64, dg, s, d, chunk int) {
		if dg < 1 || dg > 8 || s < 1 || s > 2048 || d < 1 || d > 128 || chunk < 1 || chunk > 4096 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		acc, err := New(Config{DGroup: dg, HeadDim: d})
		if err != nil {
			t.Fatal(err)
		}
		q := tensor.RandMat(rng, dg, d, 1)
		k := tensor.RandMat(rng, s, d, 1)
		v := tensor.RandMat(rng, s, d, 1)
		base, err := acc.AttentionWorkers(q, k, v, nil, tensor.Mat{}, tensor.Mat{}, 1, chunk)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{3, 8} {
			got, err := acc.AttentionWorkers(q, k, v, nil, tensor.Mat{}, tensor.Mat{}, w, chunk)
			if err != nil {
				t.Fatal(err)
			}
			if !accelEqual(base, got) {
				t.Fatalf("dg=%d s=%d d=%d chunk=%d: workers=%d diverged", dg, s, d, chunk, w)
			}
		}
		if chunkSpan(d, chunk) >= PadSequence(s) {
			want, err := acc.attentionSerial(q, k, v, nil, tensor.Mat{}, tensor.Mat{})
			if err != nil {
				t.Fatal(err)
			}
			if !accelEqual(want, base) {
				t.Fatalf("dg=%d s=%d d=%d chunk=%d: one chunk differs from the serial reference", dg, s, d, chunk)
			}
		}
	})
}
