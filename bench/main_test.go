package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	hilos "repro"
	"repro/internal/fp16"
	"repro/internal/tensor"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current program")

func TestMedianAndQuartiles(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %g, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g, want 2.5", got)
	}
	// Expected values from Python: statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestFastTenth(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{9, 3, 7}, 3}, // fewer than ten: the fastest one
		{[]float64{20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 2, 4}, 2},                               // twelve: one
		{[]float64{8, 1, 9, 3, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25}, 2}, // twenty: two
	} {
		if got := fastTenth(c.xs); got != c.want {
			t.Errorf("fastTenth(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		pct    float64
		ok     bool
		beyond int
	}{
		{19, 0, false, 0},
		{20, 50, true, 10},
		{39, 50, true, 19},
		{40, 75, true, 10},
		{100, 90, true, 10},
		{199, 90, true, 19},
		{200, 95, true, 10},
		{1000, 99, true, 10},
		{10000, 99.9, true, 10},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // descending, so tail must sort
		}
		pct, v, beyond, ok := tail(xs)
		if ok != c.ok || pct != c.pct || beyond != c.beyond {
			t.Errorf("n=%d: tail = p%g, %d beyond, ok=%t; want p%g, %d beyond, ok=%t", c.n, pct, beyond, ok, c.pct, c.beyond, c.ok)
		}
		if ok && int(v) != c.n-beyond {
			t.Errorf("n=%d: tail value %g, want the rank-%d sample %d", c.n, v, c.n-beyond, c.n-beyond)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	iv := func(a, b time.Duration) interval { return interval{a, b} }
	for _, c := range []struct {
		name string
		kids []interval
		want time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{iv(10, 20), iv(30, 50)}, 70},
		// [10,30) and [20,50) overlap: together they cover 40, not 50;
		// [40,45) lies inside them; [90,120) and [-5,5) are clipped.
		{"overlapping", []interval{iv(20, 50), iv(10, 30), iv(40, 45), iv(90, 120), iv(-5, 5)}, 45},
		{"covering", []interval{iv(0, 60), iv(50, 100)}, 0},
		{"outside", []interval{iv(100, 200), iv(-10, 0)}, 100},
	} {
		if got := selfTime(0, 100, c.kids); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSpanStats(t *testing.T) {
	tr := &tracer{origin: time.Now()}
	op := tr.begin("op")
	for i := 0; i < 3; i++ {
		tr.end(tr.begin("child"))
	}
	tr.end(op)
	st := tr.stats()
	if len(st) != 2 || st[0].name != "op" || st[1].name != "child" || st[1].n != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st[0].self > st[0].total || st[0].total < st[1].total {
		t.Errorf("op self %v total %v, children total %v", st[0].self, st[0].total, st[1].total)
	}
	var b bytes.Buffer
	if err := tr.writeChrome(&b, "test"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil || len(doc.TraceEvents) != 4 {
		t.Errorf("chrome trace: %d events, err %v", len(doc.TraceEvents), err)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/accel.(*Accelerator).AttentionWorkers.func1":         "accel",
		"repro/internal/sim.(*heap[go.shape.*repro/internal/sim.Task]).push": "sim",
		"repro/internal/tensor.Dot":                                          "tensor",
		"repro/internal/workload.PoissonArrivals":                            "other",
		"repro.Cluster":                    "other",
		"runtime.mallocgc":                 "runtime",
		"runtime/internal/atomic.Xadd":     "runtime",
		"internal/runtime/maps.(*Map).Get": "runtime",
		"slices.SortFunc[go.shape.[]int]":  "other",
		"main.main":                        "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseFlat(t *testing.T) {
	top := `File: bench
Type: cpu
Showing nodes accounting for 1500000000ns, 99.00% of 1515000000ns total
      flat  flat%   sum%        cum   cum%
850000000ns 56.11% 56.11% 1390000000ns 91.75%  runtime.findObject
530000000ns 34.98% 91.09% 530000000ns 34.98%  runtime.nextFreeFast (inline)
120000000ns  7.92% 99.01% 400000000ns 26.40%  unique.addUniqueMap[go.shape.struct { net/netip.isV6 bool }].func1
         0     0% 99.01% 10000000ns  0.66%  syscall.RawSyscall6
`
	got, err := parseFlat([]byte(top))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"runtime.findObject":   850e6,
		"runtime.nextFreeFast": 530e6,
		"unique.addUniqueMap[go.shape.struct { net/netip.isV6 bool }].func1": 120e6,
		"syscall.RawSyscall6": 0,
	}
	if len(got) != len(want) {
		t.Errorf("parseFlat = %v, want %v", got, want)
	}
	for fn, ns := range want {
		if v, ok := got[fn]; !ok || v != ns {
			t.Errorf("parseFlat[%q] = %g, %t; want %g", fn, v, ok, ns)
		}
	}
	if _, err := parseFlat([]byte("no table\n")); err == nil {
		t.Error("parseFlat without a table: no error")
	}
}

// TestCPUSharesSkipCheckLabel profiles tensor work plus fp16 work labeled as
// checking, and expects the shares to sum to 100 with tensor in them and
// fp16 left out. (Under the race detector most samples land in its runtime,
// so the test asks for tensor > 0, not for a majority.)
func TestCPUSharesSkipCheckLabel(t *testing.T) {
	a := make([]float32, 4096)
	for i := range a {
		a[i] = float32(i%7) - 3
	}
	var sink float32
	spin := func(d time.Duration, work func()) {
		for start := time.Now(); time.Since(start) < d; {
			work()
		}
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	spin(400*time.Millisecond, func() { sink += tensor.Dot(a, a) })
	pprof.Do(context.Background(), pprof.Labels(checkLabel, "check"), func(context.Context) {
		spin(400*time.Millisecond, func() { sink += fp16.RoundSlice(a)[1] })
	})
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range layers {
		sum += shares[l]
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %g: %v (sink %g)", sum, shares, sink)
	}
	if shares["tensor"] == 0 || shares["fp16"] != 0 {
		t.Errorf("tensor share %g%%, fp16 share %g%%; want tensor work counted and the checks' fp16 work left out: %v",
			shares["tensor"], shares["fp16"], shares)
	}
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (workloads []string, endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }               `json:"workloads"`
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		workloads = append(workloads, w.Name)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return workloads, endToEnd, perLayer
}

func sameNames(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, m := range got {
		if u, ok := want[name]; !ok {
			t.Errorf("%s: emits %s, which BENCHMARK.json does not declare", what, name)
		} else if u != m.Unit {
			t.Errorf("%s: %s in %s, BENCHMARK.json says %s", what, name, m.Unit, u)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: BENCHMARK.json declares %s, which is not emitted", what, name)
		}
	}
}

// TestSmokeEmitsDeclaredMetrics runs every workload at a reduced size for
// one warm-up and one timed op, untraced and traced, and checks that the
// outputs pass and the metric names are exactly the declared ones.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	names, endToEnd, perLayer := declared(t)
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !equalStrings(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, ours)
	}
	small := size{offline: 2000, online: 1000, preempt: 1000, tokens: 2048}
	for _, w := range workloads {
		w.warmup = 1
		for _, traced := range []bool{false, true} {
			rep, err := run(w, options{seed: 7, trace: traced, size: small, reps: 1, minOps: 1})
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			wantOps := 1
			want := endToEnd
			if traced {
				wantOps, want = 2, perLayer
			}
			if !rep.Correct || rep.Attempted != wantOps || rep.Failed != 0 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d: %v", w.name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.firstErr)
			}
			sameNames(t, w.name, rep.Metrics, want)
			if traced {
				sum := 0.0
				for _, l := range layers {
					sum += rep.Metrics["cpu_share."+l].Value
				}
				if sum != 0 && math.Abs(sum-100) > 1 {
					t.Errorf("%s: cpu_share sums to %g", w.name, sum)
				}
				if v := rep.Metrics["cluster.preempted_batches_per_op"].Value; (w.name == "replay-preempt") != (v > 0) {
					t.Errorf("%s: cluster.preempted_batches_per_op = %g", w.name, v)
				}
			} else if v := rep.Metrics["work_per_s"].Value; !(v > 0) {
				t.Errorf("%s: work_per_s = %g", w.name, v)
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGolden recomputes every digest in testdata/golden.json at the
// default seed and full size; with -update it rewrites the file instead.
func TestGolden(t *testing.T) {
	got := map[string]string{}
	sim, err := hilos.New()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range tableIDs() {
		tab, err := sim.ExperimentByID(id)
		if err != nil {
			t.Fatal(err)
		}
		got["figures/"+id] = digest([]byte(tab.String()))
	}
	for _, mode := range []replayMode{offline, online, preempt} {
		m, reqs, opts, err := replayInputs(mode, defaultSeed, mode.requests(fullSize))
		if err != nil {
			t.Fatal(err)
		}
		sum, err := hilos.Cluster(m, reqs, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got[mode.name()], err = summaryDigest(sum); err != nil {
			t.Fatal(err)
		}
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/golden.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if golden[k] != got[k] {
			t.Errorf("%s: digest %s, golden %q", k, got[k], golden[k])
		}
	}
	if len(golden) != len(got) {
		t.Errorf("golden has %d digests, want %d", len(golden), len(got))
	}
}
