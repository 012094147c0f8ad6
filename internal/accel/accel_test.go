package accel

import (
	"math/rand"
	"testing"

	"repro/internal/attention"
	"repro/internal/tensor"
)

const tol = 3e-3 // FP16-storage tolerance against the FP32 reference

func newAccel(t *testing.T, dGroup, headDim int) *Accelerator {
	t.Helper()
	a, err := New(Config{DGroup: dGroup, HeadDim: headDim})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// refFP16 computes the reference attention on FP16-quantized inputs,
// mirroring the accelerator's storage precision.
func refFP16(q, k, v tensor.Mat, mask []bool) tensor.Mat {
	return attention.Ref(q.Clone().RoundFP16(), k.Clone().RoundFP16(), v.Clone().RoundFP16(), mask)
}

func TestPadSequence(t *testing.T) {
	cases := map[int]int{1: 32, 32: 32, 33: 64, 128: 128, 1000: 1024}
	for in, want := range cases {
		if got := PadSequence(in); got != want {
			t.Errorf("PadSequence(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestBlocks(t *testing.T) {
	cases := map[int]int{1: 1, 128: 1, 129: 2, 4096: 32}
	for in, want := range cases {
		if got := Blocks(in); got != want {
			t.Errorf("Blocks(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestAttentionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, s := range []int{1, 31, 128, 129, 500} {
		for _, dg := range []int{1, 4} {
			a := newAccel(t, dg, 64)
			q := tensor.RandMat(rng, dg, 64, 1)
			k := tensor.RandMat(rng, s, 64, 1)
			v := tensor.RandMat(rng, s, 64, 1)
			got, err := a.Attention(q, k, v, nil, tensor.Mat{}, tensor.Mat{})
			if err != nil {
				t.Fatalf("s=%d dg=%d: %v", s, dg, err)
			}
			want := refFP16(q, k, v, nil)
			if d := tensor.MaxAbsDiff(got, want); d > tol {
				t.Errorf("s=%d dg=%d: accelerator differs from reference by %v", s, dg, d)
			}
		}
	}
}

func TestAttentionWithMask(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := 300
	a := newAccel(t, 1, 32)
	q := tensor.RandMat(rng, 1, 32, 1)
	k := tensor.RandMat(rng, s, 32, 1)
	v := tensor.RandMat(rng, s, 32, 1)
	mask := make([]bool, s)
	for i := range mask {
		mask[i] = rng.Intn(3) != 0
	}
	got, err := a.Attention(q, k, v, mask, tensor.Mat{}, tensor.Mat{})
	if err != nil {
		t.Fatal(err)
	}
	want := refFP16(q, k, v, mask)
	if d := tensor.MaxAbsDiff(got, want); d > tol {
		t.Errorf("masked accelerator differs by %v", d)
	}
}

// Delayed writeback on the accelerator: storage-resident KV plus host
// partial scores must equal attention over the concatenated cache.
func TestAttentionWithHostPartial(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sOld, c := 256, 16
	a := newAccel(t, 1, 64)
	q := tensor.RandMat(rng, 1, 64, 1).RoundFP16()
	k := tensor.RandMat(rng, sOld+c, 64, 1).RoundFP16()
	v := tensor.RandMat(rng, sOld+c, 64, 1).RoundFP16()

	// Host CPU precomputes scaled QKᵀ over the buffered keys (Fig. 6b).
	hostScores := attention.Scores(q, k.SliceRows(sOld, sOld+c))
	hostV := v.SliceRows(sOld, sOld+c)

	got, err := a.Attention(q, k.SliceRows(0, sOld), v.SliceRows(0, sOld), nil, hostScores, hostV)
	if err != nil {
		t.Fatal(err)
	}
	want := refFP16(q, k, v, nil)
	if d := tensor.MaxAbsDiff(got, want); d > tol {
		t.Errorf("host-partial attention differs from full by %v", d)
	}
}

func TestAttentionInputValidation(t *testing.T) {
	a := newAccel(t, 2, 64)
	q := tensor.New(1, 64) // wrong query rows for d_group=2
	k := tensor.New(8, 64)
	v := tensor.New(8, 64)
	if _, err := a.Attention(q, k, v, nil, tensor.Mat{}, tensor.Mat{}); err == nil {
		t.Error("query-row mismatch accepted")
	}
	q = tensor.New(2, 32) // wrong head dim
	if _, err := a.Attention(q, k, v, nil, tensor.Mat{}, tensor.Mat{}); err == nil {
		t.Error("head-dim mismatch accepted")
	}
	q = tensor.New(2, 64)
	v = tensor.New(7, 64)
	if _, err := a.Attention(q, k, v, nil, tensor.Mat{}, tensor.Mat{}); err == nil {
		t.Error("k/v row mismatch accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	if _, err := New(Config{DGroup: 0, HeadDim: 64}); err == nil {
		t.Error("d_group 0 accepted")
	}
	if _, err := New(Config{DGroup: 1, HeadDim: 256}); err == nil {
		t.Error("head dim 256 accepted")
	}
}
