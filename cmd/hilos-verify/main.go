// Command hilos-verify is the functional verification tool of §5.1: it
// validates the accelerator's numerics against the exact reference before
// "committing to resource-intensive synthesis". It checks the accelerator's
// blocked attention against the exact reference at d_group 1, 4 and 5 over
// several sequence lengths (FP16 storage, FP32 accumulate), the
// delayed-writeback merge of a storage prefix with a host partial, and the
// two-pass softmax against the three-pass reference. It then decodes a
// small transformer with internal/reflm's dense-KV Reference and with the
// full HILOS pipeline (X-cache regeneration with RoPE, accelerator
// attention, delayed writeback) at each reflm.Point and requires identical
// greedy tokens. Unless -tasks=false, it also requires the accelerator to
// score exactly as the exact path on the synthetic retrieval suite.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	hilos "repro"
	"repro/internal/accel"
	"repro/internal/attention"
	"repro/internal/longbench"
	"repro/internal/reflm"
	"repro/internal/tensor"
)

func main() {
	seed := flag.Int64("seed", 1, "verification RNG seed")
	maxSeq := flag.Int("maxseq", 1024, "largest sequence length verified")
	tol := flag.Float64("tol", 3e-3, "max |accel − reference| tolerance (FP16 storage)")
	runTasks := flag.Bool("tasks", true, "also run the retrieval accuracy suite")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	failures := 0
	check := func(name string, got, want tensor.Mat) {
		d := float64(tensor.MaxAbsDiff(got, want))
		status := "ok"
		if d > *tol {
			status = "FAIL"
			failures++
		}
		fmt.Printf("  %-44s max|Δ| = %.2e  %s\n", name, d, status)
	}

	fmt.Println("accelerator vs reference (FP16 storage, FP32 accumulate):")
	for _, s := range []int{1, 31, 128, 129, *maxSeq} {
		for _, dg := range []int{1, 4, 5} {
			a, err := accel.New(accel.Config{DGroup: dg, HeadDim: 128})
			if err != nil {
				fatal(err)
			}
			q := tensor.RandMat(rng, dg, 128, 1)
			k := tensor.RandMat(rng, s, 128, 1)
			v := tensor.RandMat(rng, s, 128, 1)
			got, err := a.Attention(q, k, v, nil, tensor.Mat{}, tensor.Mat{})
			if err != nil {
				fatal(err)
			}
			want := attention.Ref(q.Clone().RoundFP16(), k.Clone().RoundFP16(), v.Clone().RoundFP16(), nil)
			check(fmt.Sprintf("blocked attention s=%d d_group=%d", s, dg), got, want)
		}
	}

	fmt.Println("delayed-writeback merge (storage prefix + host partial):")
	{
		sOld, c := 512, 16
		a, _ := accel.New(accel.Config{DGroup: 1, HeadDim: 128})
		q := tensor.RandMat(rng, 1, 128, 1).RoundFP16()
		k := tensor.RandMat(rng, sOld+c, 128, 1).RoundFP16()
		v := tensor.RandMat(rng, sOld+c, 128, 1).RoundFP16()
		hostScores := attention.Scores(q, k.SliceRows(sOld, sOld+c))
		got, err := a.Attention(q, k.SliceRows(0, sOld), v.SliceRows(0, sOld), nil,
			hostScores, v.SliceRows(sOld, sOld+c))
		if err != nil {
			fatal(err)
		}
		want := attention.Ref(q, k, v, nil)
		check(fmt.Sprintf("writeback merge s=%d c=%d", sOld, c), got, want)
	}

	fmt.Println("two-pass softmax vs three-pass reference:")
	{
		x := make([]float32, 1000)
		for i := range x {
			x[i] = float32(rng.NormFloat64() * 5)
		}
		got := attention.SoftmaxTwoPass(x, nil, 128)
		want := attention.SoftmaxRef(x)
		gm := tensor.FromSlice(1, len(x), got)
		wm := tensor.FromSlice(1, len(x), want)
		check("two-pass softmax n=1000", gm, wm)
	}

	fmt.Println("HILOS vs dense-KV reference (greedy tokens):")
	for _, pt := range reflm.Points {
		status := "ok"
		if err := pt.Check(); err != nil {
			status = "FAIL: " + err.Error()
			failures++
		}
		fmt.Printf("  %-12s %-30s %s\n", pt.Name, pt.Engine.Name(), status)
	}

	if *runTasks {
		fmt.Println("retrieval accuracy (accelerator must equal exact):")
		for _, task := range hilos.AccuracySuite() {
			exact, err := task.Score(*seed, longbench.Exact)
			if err != nil {
				fatal(err)
			}
			blocked, err := task.Score(*seed, longbench.Blocked)
			if err != nil {
				fatal(err)
			}
			status := "ok"
			if exact != blocked {
				status = "FAIL"
				failures++
			}
			fmt.Printf("  %-24s exact=%.1f accel=%.1f  %s\n", task.Name, exact, blocked, status)
		}
	}

	if failures > 0 {
		fmt.Printf("\n%d verification failures\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nall verifications passed")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hilos-verify:", err)
	os.Exit(1)
}
