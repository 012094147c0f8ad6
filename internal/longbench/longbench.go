// Package longbench provides the accuracy harness of Fig. 18(c): synthetic
// long-context retrieval tasks standing in for the LongBench datasets (the
// real datasets are not redistributable here). Each task embeds an answer
// as repeated moderate-salience key/value pairs in a long haystack; exact
// attention aggregates the repeated evidence, while lossy top-k retrieval
// (the InstAttention-style 1/8 compression) drops part of it and loses
// accuracy. The HILOS accelerator path is exact, so its score must match
// the FlashAttention reference.
package longbench

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/accel"
	"repro/internal/attention"
	"repro/internal/tensor"
)

// Task is one synthetic retrieval dataset.
type Task struct {
	Name    string
	Seq     int     // haystack length (cached tokens)
	Dim     int     // head dimension
	Vocab   int     // candidate answer values
	Reps    int     // how many times the answer evidence appears
	Signal  float64 // salience of each evidence key (vs unit-noise distractors)
	Samples int     // queries evaluated
}

// Suite returns five tasks mirroring the five LongBench datasets evaluated
// in Fig. 18(c). Reps controls how much redundant evidence exists: fewer
// repetitions make block-granular lossy retrieval more likely to drop all
// of it.
func Suite() []Task {
	return []Task{
		{Name: "synth-qa-2k", Seq: 2048, Dim: 32, Vocab: 16, Reps: 3, Signal: 1.0, Samples: 300},
		{Name: "synth-summ-2k", Seq: 2048, Dim: 32, Vocab: 16, Reps: 4, Signal: 1.0, Samples: 300},
		{Name: "synth-fewshot-1k", Seq: 1024, Dim: 32, Vocab: 16, Reps: 3, Signal: 1.0, Samples: 300},
		{Name: "synth-code-1k", Seq: 1024, Dim: 32, Vocab: 16, Reps: 4, Signal: 1.1, Samples: 300},
		{Name: "synth-multidoc-2k", Seq: 2048, Dim: 32, Vocab: 32, Reps: 3, Signal: 1.05, Samples: 300},
	}
}

// RetrievalBlockSize is the block granularity of the lossy retrieval proxy.
const RetrievalBlockSize = 16

// Method computes one attention output for a query over the cache.
type Method func(q, k, v tensor.Mat) tensor.Mat

// Exact is the FlashAttention-equivalent reference.
func Exact(q, k, v tensor.Mat) tensor.Mat { return attention.Ref(q, k, v, nil) }

// Blocked is the HILOS accelerator functional path (lossless by design).
func Blocked(q, k, v tensor.Mat) tensor.Mat {
	a, err := accel.New(accel.Config{DGroup: 1, HeadDim: q.Cols})
	if err != nil {
		panic(err) // configuration is internal to the harness
	}
	out, err := a.Attention(q, k, v, nil, tensor.Mat{}, tensor.Mat{})
	if err != nil {
		panic(err)
	}
	return out
}

// LossyOneEighth is the InstAttention-style lossy retrieval at the paper's
// default 1/8 compression ratio: block-granular pruning by pooled scores.
func LossyOneEighth(q, k, v tensor.Mat) tensor.Mat {
	keep := k.Rows / RetrievalBlockSize / 8
	return attention.TopKBlocks(q, k, v, nil, keep, RetrievalBlockSize)
}

// Score runs the task and returns the F1 score (equal to accuracy for this
// single-label retrieval task) in percent.
func (t Task) Score(seed int64, m Method) (float64, error) {
	if t.Seq < 8 || t.Dim < 4 || t.Vocab < 2 || t.Reps < 1 || t.Samples < 1 {
		return 0, fmt.Errorf("longbench: degenerate task %+v", t)
	}
	rng := rand.New(rand.NewSource(seed))

	// Value codebook: one embedding per candidate answer, normalized so no
	// codeword is favored by norm alone.
	codebook := tensor.RandMat(rng, t.Vocab, t.Dim, 1)
	for c := 0; c < t.Vocab; c++ {
		normalizeRow(codebook.Row(c))
	}

	correct := 0
	for n := 0; n < t.Samples; n++ {
		answer := rng.Intn(t.Vocab)
		q := tensor.RandMat(rng, 1, t.Dim, 1)
		normalizeRow(q.Row(0)) // fixed query energy keeps evidence salience stable

		k := tensor.RandMat(rng, t.Seq, t.Dim, 1)
		v := tensor.New(t.Seq, t.Dim)
		// Distractor values drawn from the codebook (never the answer).
		for i := 0; i < t.Seq; i++ {
			c := rng.Intn(t.Vocab - 1)
			if c >= answer {
				c++
			}
			copy(v.Row(i), codebook.Row(c))
		}
		// Evidence: Reps positions whose keys lean toward the query and
		// whose values carry the answer. Individually moderate, they win
		// only in aggregate — the regime where lossy top-k retrieval
		// starts dropping evidence.
		for r := 0; r < t.Reps; r++ {
			i := rng.Intn(t.Seq)
			krow := k.Row(i)
			qrow := q.Row(0)
			for j := range krow {
				krow[j] = float32(float32(t.Signal)*qrow[j]) + float32(rng.NormFloat64()*0.6)
			}
			copy(v.Row(i), codebook.Row(answer))
		}

		out := m(q, k, v)
		if predict(out.Row(0), codebook) == answer {
			correct++
		}
	}
	return 100 * float64(correct) / float64(t.Samples), nil
}

// normalizeRow rescales a vector to norm √dim (unit average energy).
func normalizeRow(row []float32) {
	var ss float64
	for _, x := range row {
		ss += float64(float64(x) * float64(x))
	}
	if ss == 0 {
		return
	}
	scale := float32(math.Sqrt(float64(len(row)) / ss))
	for i := range row {
		row[i] *= scale
	}
}

// predict returns the codebook row closest (by inner product) to the
// attention output.
func predict(out []float32, codebook tensor.Mat) int {
	best, bi := float32(-1e30), 0
	for c := 0; c < codebook.Rows; c++ {
		if s := tensor.Dot(out, codebook.Row(c)); s > best {
			best, bi = s, c
		}
	}
	return bi
}
