package attention

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

const tol = 2e-4 // FP32 accumulation tolerance between algorithm variants

func randQKV(rng *rand.Rand, nq, s, d, dv int) (q, k, v tensor.Mat) {
	q = tensor.RandMat(rng, nq, d, 1)
	k = tensor.RandMat(rng, s, d, 1)
	v = tensor.RandMat(rng, s, dv, 1)
	return q, k, v
}

// Finalize returns the normalized attention output acc/Z.
func (p Partial) Finalize() []float32 {
	out := make([]float32, len(p.Acc))
	p.FinalizeInto(out)
	return out
}

// partialOverRange computes the un-normalized partial for one query over all
// rows of k/v, applying mask entries offset..offset+k.Rows.
func partialOverRange(qrow []float32, k, v tensor.Mat, mask []bool, offset int) Partial {
	d := len(qrow)
	scale := float32(1 / math.Sqrt(float64(d)))
	p := NewPartial(v.Cols)
	for ki := 0; ki < k.Rows; ki++ {
		s := tensor.Dot(qrow, k.Row(ki)) * scale
		p.AddToken(applyMask(s, mask, offset+ki), v.Row(ki))
	}
	return p
}

func TestBlockedMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, s := range []int{1, 3, 127, 128, 129, 400} {
		q, k, v := randQKV(rng, 2, s, 32, 32)
		want := Ref(q, k, v, nil)
		for _, bs := range []int{1, 16, 128} {
			got := Blocked(q, k, v, nil, bs)
			if d := tensor.MaxAbsDiff(got, want); d > tol {
				t.Errorf("s=%d bs=%d: blocked differs from ref by %v", s, bs, d)
			}
		}
	}
}

func TestBlockedWithMask(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := 200
	q, k, v := randQKV(rng, 1, s, 16, 16)
	mask := make([]bool, s)
	for i := range mask {
		mask[i] = rng.Intn(4) != 0 // ~25% padding
	}
	want := Ref(q, k, v, mask)
	got := Blocked(q, k, v, mask, 64)
	if d := tensor.MaxAbsDiff(got, want); d > tol {
		t.Errorf("masked blocked differs from ref by %v", d)
	}
}

// Attention output is a convex combination of value rows: each output
// coordinate lies within [min, max] of the corresponding value column.
func TestAttentionConvexity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q, k, v := randQKV(rng, 1, 50, 8, 4)
		out := Blocked(q, k, v, nil, 16)
		for j := 0; j < v.Cols; j++ {
			lo, hi := float32(math.Inf(1)), float32(math.Inf(-1))
			for i := 0; i < v.Rows; i++ {
				x := v.Row(i)[j]
				if x < lo {
					lo = x
				}
				if x > hi {
					hi = x
				}
			}
			o := out.Row(0)[j]
			if o < lo-1e-4 || o > hi+1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// With a single cached token, attention returns that token's value exactly.
func TestSingleTokenIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	q, k, v := randQKV(rng, 3, 1, 8, 5)
	out := Ref(q, k, v, nil)
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			if math.Abs(float64(out.Row(i)[j]-v.Row(0)[j])) > 1e-6 {
				t.Fatalf("single-token attention not identity at (%d,%d)", i, j)
			}
		}
	}
}

// Merge folds another partial (over a disjoint token range) into p: the
// merge identity the delayed-writeback tests and FuzzPartialMerge check.
//
//lint:allow floataccum the Partial accumulator itself is the modeled FP32 MAC array
func (p *Partial) Merge(o Partial) {
	if len(p.Acc) != len(o.Acc) {
		panic("attention: partial dim mismatch")
	}
	if math.IsInf(o.Stats.M, -1) {
		return
	}
	if o.Stats.M > p.Stats.M {
		r := math.Exp(p.Stats.M - o.Stats.M)
		r32 := float32(r)
		for i := range p.Acc {
			p.Acc[i] = p.Acc[i]*r32 + o.Acc[i]
		}
		p.Stats.Z = p.Stats.Z*r + o.Stats.Z
		p.Stats.M = o.Stats.M
	} else {
		r := math.Exp(o.Stats.M - p.Stats.M)
		r32 := float32(r)
		for i := range p.Acc {
			p.Acc[i] += o.Acc[i] * r32
		}
		p.Stats.Z += o.Stats.Z * r
	}
}

func TestPartialMergeEqualsWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	q, k, v := randQKV(rng, 1, 300, 16, 16)
	whole := partialOverRange(q.Row(0), k, v, nil, 0)
	// Split at arbitrary points and merge.
	for _, cut := range []int{1, 100, 299} {
		a := partialOverRange(q.Row(0), k.SliceRows(0, cut), v.SliceRows(0, cut), nil, 0)
		b := partialOverRange(q.Row(0), k.SliceRows(cut, 300), v.SliceRows(cut, 300), nil, cut)
		a.Merge(b)
		fa, fw := a.Finalize(), whole.Finalize()
		for i := range fa {
			if math.Abs(float64(fa[i]-fw[i])) > tol {
				t.Fatalf("cut=%d: merged partial differs at %d: %v vs %v", cut, i, fa[i], fw[i])
			}
		}
	}
}

func TestPartialMergeEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	q, k, v := randQKV(rng, 1, 10, 8, 8)
	p := partialOverRange(q.Row(0), k, v, nil, 0)
	before := p.Finalize()
	p.Merge(NewPartial(8)) // identity merge
	after := p.Finalize()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("identity merge changed result")
		}
	}
}

// delayedWriteback merges the partial over a committed prefix with the
// partial a host builds from precomputed scores over the buffered tail
// (Fig. 6b), the PartialFromScores merge the accelerator folds in.
func delayedWriteback(q, kOld, vOld, kBuf, vBuf tensor.Mat, mask []bool) tensor.Mat {
	out := tensor.New(q.Rows, vOld.Cols)
	scores := Scores(q, kBuf)
	for i := 0; i < q.Rows; i++ {
		p := partialOverRange(q.Row(i), kOld, vOld, mask, 0)
		bufScores := scores.Row(i)
		if mask != nil {
			for j := range bufScores {
				bufScores[j] = applyMask(bufScores[j], mask, kOld.Rows+j)
			}
		}
		p.Merge(PartialFromScores(bufScores, vBuf))
		copy(out.Row(i), p.Finalize())
	}
	return out
}

func TestDelayedWritebackExact(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	sOld, sBuf := 256, 16 // spill interval c=16 worth of buffered tokens
	q := tensor.RandMat(rng, 1, 32, 1)
	k := tensor.RandMat(rng, sOld+sBuf, 32, 1)
	v := tensor.RandMat(rng, sOld+sBuf, 32, 1)
	want := Ref(q, k, v, nil)
	got := delayedWriteback(q,
		k.SliceRows(0, sOld), v.SliceRows(0, sOld),
		k.SliceRows(sOld, sOld+sBuf), v.SliceRows(sOld, sOld+sBuf), nil)
	if d := tensor.MaxAbsDiff(got, want); d > tol {
		t.Errorf("delayed writeback differs from full attention by %v", d)
	}
}

func TestDelayedWritebackMultiQueryAndMask(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	sOld, sBuf := 100, 8
	q := tensor.RandMat(rng, 3, 16, 1)
	k := tensor.RandMat(rng, sOld+sBuf, 16, 1)
	v := tensor.RandMat(rng, sOld+sBuf, 16, 1)
	mask := make([]bool, sOld+sBuf)
	for i := range mask {
		mask[i] = i%7 != 0
	}
	want := Ref(q, k, v, mask)
	got := delayedWriteback(q,
		k.SliceRows(0, sOld), v.SliceRows(0, sOld),
		k.SliceRows(sOld, sOld+sBuf), v.SliceRows(sOld, sOld+sBuf), mask)
	if d := tensor.MaxAbsDiff(got, want); d > tol {
		t.Errorf("masked multi-query writeback differs by %v", d)
	}
}

func TestScoresMatchRefWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	q, k, v := randQKV(rng, 1, 30, 8, 8)
	sc := Scores(q, k)
	p := SoftmaxRef(sc.Row(0))
	// Reconstruct attention from scores and compare with Ref.
	out := make([]float32, v.Cols)
	for i, w := range p {
		for j := range out {
			out[j] += w * v.Row(i)[j]
		}
	}
	want := Ref(q, k, v, nil)
	for j := range out {
		if math.Abs(float64(out[j]-want.Row(0)[j])) > tol {
			t.Fatalf("score-reconstructed attention differs at %d", j)
		}
	}
}

func TestTopKBlocksKeepAllIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	q, k, v := randQKV(rng, 2, 128, 16, 16)
	want := Ref(q, k, v, nil)
	got := TopKBlocks(q, k, v, nil, 8, 16) // all 8 blocks kept
	if d := tensor.MaxAbsDiff(got, want); d > tol {
		t.Errorf("full block retention differs from exact by %v", d)
	}
}

func TestTopKBlocksDropsLowScoringBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := 16
	q := tensor.RandMat(rng, 1, d, 1)
	// Two blocks: the first leans toward q, the second away from it.
	k := tensor.New(32, d)
	v := tensor.RandMat(rng, 32, d, 1)
	for i := 0; i < 16; i++ {
		copy(k.Row(i), q.Row(0))
	}
	for i := 16; i < 32; i++ {
		for j := 0; j < d; j++ {
			k.Row(i)[j] = -q.Row(0)[j]
		}
	}
	// Keeping one block must reproduce attention over the first block only.
	got := TopKBlocks(q, k, v, nil, 1, 16)
	want := Ref(q, k.SliceRows(0, 16), v.SliceRows(0, 16), nil)
	if diff := tensor.MaxAbsDiff(got, want); diff > tol {
		t.Errorf("kept-block attention differs by %v", diff)
	}
}

func TestTopKBlocksRaggedTail(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	// 40 tokens with block size 16: the last block has 8 tokens; block
	// means must not be skewed by the shorter tail.
	q, k, v := randQKV(rng, 1, 40, 8, 8)
	got := TopKBlocks(q, k, v, nil, 3, 16) // keep everything
	want := Ref(q, k, v, nil)
	if d := tensor.MaxAbsDiff(got, want); d > tol {
		t.Errorf("ragged-tail full retention differs by %v", d)
	}
}

func TestTopKBlocksMask(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	q, k, v := randQKV(rng, 1, 64, 8, 8)
	mask := make([]bool, 64)
	for i := range mask {
		mask[i] = i < 48 // last block fully padded
	}
	got := TopKBlocks(q, k, v, mask, 3, 16)
	want := Ref(q, k.SliceRows(0, 48), v.SliceRows(0, 48), nil)
	if d := tensor.MaxAbsDiff(got, want); d > tol {
		t.Errorf("masked block retention differs by %v", d)
	}
}

// TestTopKBlocksRowsIndependent: a multi-row TopKBlocks or Blocked call
// reuses one score buffer and one Partial across rows, so each row of a
// 6-row call must equal a one-row call on that query bit for bit, with a
// ragged tail block and a mask.
func TestTopKBlocksRowsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const rows, s, d, bs = 6, 100, 16, 16 // 100 tokens: a 4-token tail block
	q, k, v := randQKV(rng, rows, s, d, d)
	mask := make([]bool, s)
	for i := range mask {
		mask[i] = i%5 != 0
	}
	for _, c := range []struct {
		name string
		run  func(q tensor.Mat) tensor.Mat
	}{
		{"TopKBlocks", func(q tensor.Mat) tensor.Mat { return TopKBlocks(q, k, v, mask, 3, bs) }},
		{"Blocked", func(q tensor.Mat) tensor.Mat { return Blocked(q, k, v, mask, bs) }},
	} {
		all := c.run(q)
		for i := 0; i < rows; i++ {
			one := c.run(q.SliceRows(i, i+1)).Row(0)
			for j, x := range all.Row(i) {
				if math.Float32bits(x) != math.Float32bits(one[j]) {
					t.Fatalf("%s: row %d of a %d-row call differs from a one-row call at %d: %v vs %v", c.name, i, rows, j, x, one[j])
				}
			}
		}
	}
}
