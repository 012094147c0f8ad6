// Command bench measures how long this program takes on its five
// workloads: host time, not simulated time. The simulated results (tables,
// cluster summaries, attention outputs) are checked on every op and must
// not change. See README.md for the workloads and metrics.
//
// One workload, from the root of the repository:
//
//	bash bench/run.sh --workload figures --seed 1 --seconds 10 --trace 0
//
// prints a few readable lines and, as its last line, one JSON object with
// the end-to-end metrics (--trace 0) or the per-layer metrics of a traced
// run (--trace 1). Without --workload it runs every workload in its own
// child process, in sequence; -trace-dir DIR makes those the traced runs
// and writes each one's Chrome trace and CPU profile into DIR.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run sets up its workload: input
// generation, reference outputs and warm-up ops. setup_s is the median.
const setupReps = 5

type options struct {
	seed    int64
	seconds float64 // time box of the timed phase
	trace   bool
	size    size
	reps    int // setup repetitions
	minOps  int // timed ops to run even past the time box
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value; printed, not part of the JSON
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run measured.
type report struct {
	result
	firstErr error
	setups   []float64 // seconds per setup repetition
	ops      phase     // the untraced ops
	tracer   *tracer   // the traced ops' spans, for traced runs
	profile  []byte    // the timed phase's CPU profile, for traced runs
}

// phase is the outcome of the untraced or the traced ops of a timed loop.
type phase struct {
	wall, cpu      []time.Duration // per op
	allocs, cycles uint64          // heap bytes allocated and GC cycles during the ops
	failed         int
	firstErr       error
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: figures, replay-offline, replay-online, replay-preempt or ans-decode; empty runs each in a child process")
		seed     = flag.Int64("seed", defaultSeed, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 13, "length of the timed phase, in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced phase and reports the per-layer metrics instead of the end-to-end ones")
		traceDir = flag.String("trace-dir", "", "directory to write traced runs' Chrome traces and CPU profiles to; implies -trace 1")
		out      = flag.String("out", "", "file to append each run's result record to, one JSON line per run")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1, got %d", *trace)
	}
	traced := *trace == 1 || *traceDir != ""
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, traced, *traceDir, *out))
	}
	w, err := lookup(*name)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("# bench %s: seed=%d seconds=%g trace=%t nproc=%d gomaxprocs=%d go=%s\n",
		w.name, *seed, *seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	rep, err := run(w, options{seed: *seed, seconds: *seconds, trace: traced, size: fullSize, reps: setupReps, minOps: 3})
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	rep.print(w)
	if traced && *traceDir != "" {
		if err := rep.writeTrace(*traceDir, w.name); err != nil {
			fatalf("%v", err)
		}
	}
	if *out != "" {
		if err := rep.appendRecord(*out, w.name, *seed, *seconds, traced); err != nil {
			fatalf("%v", err)
		}
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// runAll runs every workload in its own child process, in sequence, and
// returns 1 if any of them failed.
func runAll(seed int64, seconds float64, traced bool, traceDir, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	status := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds)}
		if traced {
			args = append(args, "-trace", "1", "-trace-dir", traceDir)
		}
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// run sets the workload up, then times it for the time box. In a traced
// run every second op is traced and the CPU profiler runs throughout, so
// traced and untraced ops share the host's ups and downs.
func run(w workload, o options) (*report, error) {
	j, setups, err := setup(w, o)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	rep := &report{setups: setups}
	if !o.trace {
		rep.ops, _ = timed(j, o.seconds, o.minOps, nil)
		rep.Metrics = endToEnd(j, rep.ops, setups)
		rep.tally(rep.ops)
		return rep, nil
	}

	rep.tracer = newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	plain, traced := timed(j, o.seconds, o.minOps, rep.tracer)
	pprof.StopCPUProfile()
	rep.ops, rep.profile = plain, prof.Bytes()
	shares, err := cpuShares(rep.profile)
	if err != nil {
		return nil, err
	}
	rep.Metrics = perLayer(j, rep.tracer, plain, traced, shares)
	rep.tally(plain)
	rep.tally(traced)
	return rep, nil
}

// setup prepares the workload o.reps times, each time generating the inputs
// and reference outputs and running the warm-up ops, and returns the last
// job with the time each repetition took. A failed warm-up op fails the
// run.
func setup(w workload, o options) (*job, []float64, error) {
	var j *job
	var times []float64
	for r := 0; r < o.reps; r++ {
		j = nil // the previous repetition's inputs may be collected
		runtime.GC()
		t0 := time.Now()
		next, err := w.prepare(o.seed, o.size)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		for i := 0; i < w.warmup; i++ {
			check, err := next.op(nil)
			if err == nil {
				err = check()
			}
			if err != nil {
				return nil, nil, fmt.Errorf("warm-up op %d: %w", i+1, err)
			}
		}
		times = append(times, time.Since(t0).Seconds())
		j = next
	}
	return j, times, nil
}

// timed runs ops back to back from one goroutine until the time box has
// passed and at least minOps untraced ops have run, timing each op alone
// and checking each output after it. With a tracer, every second op runs
// traced, with the program's counter hooks on, and at least minOps of each
// kind run; the traced ops go to the second phase.
func timed(j *job, seconds float64, minOps int, tr *tracer) (plain, traced phase) {
	start := time.Now()
	for i := 0; len(plain.wall) < minOps || (tr != nil && len(traced.wall) < minOps) ||
		time.Since(start).Seconds() < seconds; i++ {
		if tr != nil && i%2 == 1 {
			traced.run(j, tr)
		} else {
			plain.run(j, nil)
		}
	}
	return plain, traced
}

// run times one op, traced if tr is not nil, and checks its output.
func (p *phase) run(j *job, tr *tracer) {
	tr.start()
	a0, g0 := readMem()
	s := tr.begin("op")
	c0, t0 := cpuTime(), time.Now()
	check, err := j.op(tr)
	wall, cpu := time.Since(t0), cpuTime()-c0
	tr.end(s)
	a1, g1 := readMem()
	tr.stop()
	if err == nil {
		err = verify(check)
	}
	p.wall, p.cpu = append(p.wall, wall), append(p.cpu, cpu)
	p.allocs += a1 - a0
	p.cycles += g1 - g0
	if err != nil {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = err
		}
	}
}

// verify runs an output check under the profile label cpuShares leaves
// out, so checking does not count against any layer.
func verify(check func() error) (err error) {
	pprof.Do(context.Background(), pprof.Labels(checkLabel, "check"), func(context.Context) {
		err = check()
	})
	return err
}

func (r *report) tally(p phase) {
	r.Attempted += len(p.wall)
	r.Failed += p.failed
	r.Correct = r.Failed == 0
	if r.firstErr == nil {
		r.firstErr = p.firstErr
	}
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio returns a/b, or 0 when b is 0, so a layer a workload never enters
// reads 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd computes the metrics a user of the program sees from the
// untraced ops. Op time and CPU per op are the means of the fastest tenth
// of the ops (see fastTenth); print shows the median and tail beside them.
func endToEnd(j *job, p phase, setups []float64) map[string]metric {
	n := len(p.wall)
	return map[string]metric{
		"work_per_s":    {j.work / fastTenth(millis(p.wall)) * 1e3, "1/s", n},
		"cpu_ms_per_op": {fastTenth(millis(p.cpu)), "ms", n},
		"peak_rss_mb":   {mb(peakRSS()), "MB", 1},
		"setup_s":       {median(setups), "s", len(setups)},
	}
}

// perLayer computes the per-layer metrics of a traced run. Span and counter
// metrics come from the traced ops, the GC metrics from the untraced ones,
// and tracing.overhead compares the two. A layer the workload never enters
// reads 0.
func perLayer(j *job, tr *tracer, plain, traced phase, shares map[string]float64) map[string]metric {
	n := len(traced.wall)
	ops := float64(n)
	m := map[string]metric{}
	put := func(name, unit string, v float64, n int) { m[name] = metric{v, unit, n} }
	// spanMedian returns the median length in nanoseconds of the spans
	// called name, and the spans.
	spanMedian := func(name string) (float64, []span) {
		ss := tr.named(name)
		d := make([]float64, len(ss))
		for i, s := range ss {
			d[i] = float64(s.end - s.start)
		}
		return median(d), ss
	}

	for _, id := range tableIDs() {
		d, ss := spanMedian("experiments." + id)
		put("experiments.table_ms."+id, "ms", d/1e6, len(ss))
	}

	hits := float64(tr.counter("repcache.hits"))
	misses := float64(tr.counter("repcache.misses"))
	coalesced := float64(tr.counter("repcache.coalesced"))
	put("repcache.hits_per_op", "count", hits/ops, n)
	put("repcache.misses_per_op", "count", misses/ops, n)
	put("repcache.hit_ratio", "frac", ratio(hits, hits+misses+coalesced), n)
	put("sim.tasks_per_op", "count", float64(tr.counter("sim.tasks_scheduled"))/ops, n)
	put("cluster.dispatched_batches_per_op", "count", float64(tr.counter("cluster.dispatched_batches"))/ops, n)
	put("cluster.preempted_batches_per_op", "count", float64(tr.counter("cluster.preempted_batches"))/ops, n)

	replays := tr.named("hilos.Cluster")
	var replayCPU time.Duration
	for _, s := range replays {
		replayCPU += s.cpu
	}
	put("cluster.cpu_ns_per_request", "ns", ratio(float64(replayCPU), j.work*float64(len(replays))), len(replays))

	attn, calls := spanMedian("accel.Attention")
	put("accel.attention_ms", "ms", attn/1e6, len(calls))
	scores, scored := spanMedian("attention.Scores")
	put("attention.scores_us", "us", scores/1e3, len(scored))
	put("accel.kv_gbps", "GB/s", ratio(j.kvBytes, attn), len(calls)) // bytes per ns = GB/s
	var attnAlloc float64
	for _, s := range calls {
		attnAlloc += float64(s.alloc)
	}
	put("accel.alloc_mb_per_call", "MB", mb(ratio(attnAlloc, float64(len(calls)))), len(calls))

	for _, l := range layers {
		put("cpu_share."+l, "%", shares[l], n)
	}
	plainOps := float64(len(plain.wall))
	put("gc.cycles_per_op", "count", float64(plain.cycles)/plainOps, len(plain.wall))
	put("gc.alloc_mb_per_op", "MB", mb(float64(plain.allocs))/plainOps, len(plain.wall))
	put("tracing.overhead", "frac", median(millis(traced.wall))/median(millis(plain.wall))-1, n)
	return m
}

// print writes the readable lines that precede the JSON result: set-up and
// op-time distribution, the span table of a traced run, and every metric
// with its unit and sample count.
func (r *report) print(w workload) {
	fmt.Printf("# setup: %d reps of input generation, reference outputs and %d warm-up ops; seconds %s\n",
		len(r.setups), w.warmup, fmtFloats(r.setups))
	opMs := millis(r.ops.wall)
	q1, q2, q3 := quartiles(opMs)
	fmt.Printf("# op_ms (untraced): n=%d fastest-tenth mean=%.3f p25=%.3f op_p50_ms=%.3f p75=%.3f",
		len(opMs), fastTenth(opMs), q1, q2, q3)
	if p, v, beyond, ok := tail(opMs); ok {
		fmt.Printf("; op_tail_ms p%g=%.3f (%d beyond)", p, v, beyond)
	} else {
		fmt.Printf("; op_tail_ms: fewer than 20 samples")
	}
	fmt.Printf("; work unit: %s\n", w.unit)
	if r.tracer != nil {
		fmt.Printf("# %-32s %6s %10s %12s %12s %12s %10s\n", "span", "n", "p50_ms", "total_ms", "self_ms", "cpu_ms", "alloc_mb/n")
		for _, s := range r.tracer.stats() {
			fmt.Printf("# %-32s %6d %10.3f %12.3f %12.3f %12.3f %10.3f\n",
				s.name, s.n, ms(s.p50), ms(s.total), ms(s.self), ms(s.cpu), mb(s.allocPerRun))
		}
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("%-40s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.n)
	}
	if r.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %d of %d ops failed; first: %v\n", r.Failed, r.Attempted, r.firstErr)
	}
}

func fmtFloats(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(s, " ")
}

// writeTrace writes the traced phase's spans as Chrome trace JSON and its
// CPU profile, for `go tool pprof`, into dir.
func (r *report) writeTrace(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b bytes.Buffer
	if err := r.tracer.writeChrome(&b, name); err != nil {
		return err
	}
	return errors.Join(
		os.WriteFile(filepath.Join(dir, name+".trace.json"), b.Bytes(), 0o644),
		os.WriteFile(filepath.Join(dir, name+".cpu.pprof"), r.profile, 0o644),
	)
}

// record is one run as the result files keep it.
type record struct {
	Host       string    `json:"host_cpu"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Go         string    `json:"go"`
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Trace      bool      `json:"trace"`
	Result     result    `json:"result"`
	SetupS     []float64 `json:"setup_s"`
	OpMs       []float64 `json:"op_ms"`
	CPUMs      []float64 `json:"cpu_ms"`
}

// appendRecord appends the run, with the host it ran on and its per-op
// samples, to the file at path as one JSON line.
func (r *report) appendRecord(path, name string, seed int64, seconds float64, traced bool) error {
	line, err := json.Marshal(record{
		Host: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Workload: name, Seed: seed, Seconds: seconds, Trace: traced, Result: r.result,
		SetupS: r.setups, OpMs: millis(r.ops.wall), CPUMs: millis(r.ops.cpu),
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuModel returns the host CPU's model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
