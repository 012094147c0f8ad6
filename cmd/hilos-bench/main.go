// Command hilos-bench regenerates the paper's evaluation: every table and
// figure, printed as aligned text tables with the paper's expected shapes
// as notes. The tables go to stdout, which is the same on every run; the
// wall-clock time of each experiment goes to stderr.
//
// Usage:
//
//	hilos-bench                 # run everything in paper order
//	hilos-bench -only fig10     # run one experiment
//	hilos-bench -list           # list experiment identifiers
//
// `hilos-bench -tune` measures the kernel chunk span on the current machine:
// it sweeps K/V chunk spans over a decode-shape attention call and prints
// the knee next to the built-in span. The built-in span derives from a
// fixed cache budget (never probed from the host), because chunk geometry
// is part of the numeric contract; the sweep only reports, it sets nothing.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	hilos "repro"
	"repro/internal/attention"
	"repro/internal/tensor"
)

// minTuneSpan is the smallest K/V chunk span -tune tries. The sweep stops
// at twice the context length, so contexts shorter than half of it would
// record no point.
const minTuneSpan = 256

// runTune sweeps K/V chunk spans on a decode-shape Blocked attention call
// and reports the knee: the smallest span within 5% of the fastest — smaller
// chunks balance better across workers, so prefer them when the cache stops
// mattering. It prints the knee next to the built-in span for this head
// dimension. Each swept span goes to the kernel as its chunkTokens argument;
// nothing is persisted.
func runTune(w io.Writer, seq, dim, workers int) error {
	if seq < minTuneSpan/2 {
		return fmt.Errorf("hilos-bench: -tune-seq must be at least %d, got %d", minTuneSpan/2, seq)
	}
	if dim <= 0 {
		return fmt.Errorf("hilos-bench: -tune-dim must be positive, got %d", dim)
	}
	rng := rand.New(rand.NewSource(1))
	q := tensor.RandMat(rng, 1, dim, 1)
	k := tensor.RandMat(rng, seq, dim, 1)
	v := tensor.RandMat(rng, seq, dim, 1)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	builtin := attention.ChunkSpan(dim, 128, 0)
	fmt.Fprintf(w, "chunk-span sweep: seq=%d dim=%d workers=%d (built-in span %d)\n",
		seq, dim, workers, builtin)
	type point struct {
		span int
		sec  float64
	}
	var pts []point
	for span := minTuneSpan; span <= 65536 && span <= 2*seq; span *= 2 {
		attention.BlockedWorkers(q, k, v, nil, 128, workers, span) // warm-up
		const reps = 3
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			attention.BlockedWorkers(q, k, v, nil, 128, workers, span)
		}
		sec := time.Since(t0).Seconds() / reps
		pts = append(pts, point{span, sec})
		fmt.Fprintf(w, "  span %6d: %8.2f ms/op  %7.1f Mtok/s\n", span, sec*1e3, float64(seq)/sec/1e6)
	}
	best := pts[0]
	for _, p := range pts {
		if p.sec < best.sec {
			best = p
		}
	}
	knee := best
	for _, p := range pts {
		if p.sec <= best.sec*1.05 {
			knee = p
			break
		}
	}
	fmt.Fprintf(w, "fastest span %d (%.2f ms/op); knee span %d, built-in span %d\n",
		best.span, best.sec*1e3, knee.span, builtin)
	return nil
}

func main() {
	only := flag.String("only", "", "run a single experiment by ID (e.g. fig10)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	tune := flag.Bool("tune", false, "sweep kernel K/V chunk spans and report the knee next to the built-in span")
	tuneSeq := flag.Int("tune-seq", 64*1024, "context length (tokens) for the -tune sweep")
	tuneDim := flag.Int("tune-dim", 128, "head dimension for the -tune sweep")
	tuneWorkers := flag.Int("tune-workers", 0, "worker count for the -tune sweep (0 = GOMAXPROCS)")
	flag.Parse()

	if *tune {
		if err := runTune(os.Stdout, *tuneSeq, *tuneDim, *tuneWorkers); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}

	if *list {
		fmt.Println(strings.Join(hilos.ExperimentIDs(), "\n"))
		return
	}

	sim, err := hilos.New()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *only != "" {
		tab, err := sim.ExperimentByID(*only)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Print(tab)
		return
	}

	start := time.Now()
	for _, id := range hilos.ExperimentIDs() {
		t0 := time.Now()
		tab, err := sim.ExperimentByID(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println(tab)
		fmt.Fprintf(os.Stderr, "(%s in %.1fs)\n", id, time.Since(t0).Seconds())
	}
	fmt.Fprintf(os.Stderr, "all experiments completed in %.1fs\n", time.Since(start).Seconds())
}
