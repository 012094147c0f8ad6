package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	hilos "repro"
)

// A span is one timed call the benchmark made into a layer: its wall
// interval from the tracer's origin, the process CPU time and heap bytes
// allocated during it, and the span it ran under. While the span is open,
// cpu and alloc hold the readings taken when it began.
type span struct {
	name       string
	start, end time.Duration
	cpu        time.Duration
	alloc      uint64
	parent     int // index into tracer.spans, -1 for a root
}

// tracer records spans around the benchmark's calls into the program and
// holds the program's counter hooks for traced ops. Spans stay in memory
// until the run writes them out. A nil *tracer records nothing and turns no
// hook on, which is how untraced ops run.
type tracer struct {
	origin  time.Time
	spans   []span
	open    []int // indexes of the open spans, innermost last
	reg     *hilos.MetricsRegistry
	cluster *hilos.ClusterTelemetry // passed to every traced replay
}

func newTracer() *tracer {
	reg := hilos.NewMetricsRegistry()
	return &tracer{origin: time.Now(), reg: reg, cluster: hilos.NewClusterTelemetry(reg, nil)}
}

// start turns the program's process-wide counter hooks on: the
// report-cache and simulator counters.
func (t *tracer) start() {
	if t != nil {
		hilos.EnableCacheMetrics(t.reg)
		hilos.EnableSimTelemetry(t.reg, nil)
	}
}

// stop turns them off again.
func (t *tracer) stop() {
	if t != nil {
		hilos.EnableCacheMetrics(nil)
		hilos.EnableSimTelemetry(nil, nil)
	}
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, cpu: cpuTime(), alloc: heapAllocs()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	t.spans[id].start = time.Since(t.origin)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	if t.open[n] != id {
		panic(fmt.Sprintf("bench: span %q closed out of order", t.spans[id].name))
	}
	s := &t.spans[id]
	s.end = time.Since(t.origin)
	s.cpu = cpuTime() - s.cpu
	s.alloc = heapAllocs() - s.alloc
	t.open = t.open[:n]
}

// counter returns the value of one of the program's counters.
func (t *tracer) counter(name string) int64 {
	return t.reg.Snapshot().Counters[name]
}

// named returns the spans called name, in the order they began.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// interval is a half-open [start, end) stretch of wall time.
type interval struct{ start, end time.Duration }

// selfTime returns how much of [start, end) no child covers: the length of
// the interval minus the length of the union of the children, each clipped
// to it. Children may overlap each other (work fanned out to goroutines);
// overlapping stretches count once.
func selfTime(start, end time.Duration, kids []interval) time.Duration {
	var clipped []interval
	for _, k := range kids {
		k.start, k.end = max(k.start, start), min(k.end, end)
		if k.end > k.start {
			clipped = append(clipped, k)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered := time.Duration(0)
	reach := start
	for _, k := range clipped {
		if k.end <= reach {
			continue
		}
		covered += k.end - max(k.start, reach)
		reach = k.end
	}
	return end - start - covered
}

// spanStat summarizes the spans of one name.
type spanStat struct {
	name        string
	n           int
	p50, total  time.Duration
	self        time.Duration
	cpu         time.Duration
	allocPerRun float64
}

// stats summarizes the recorded spans by name, in order of first
// appearance.
func (t *tracer) stats() []spanStat {
	kids := make([][]interval, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], interval{s.start, s.end})
		}
	}
	index := map[string]int{}
	var out []spanStat
	var durs [][]float64
	var allocs []uint64
	for i, s := range t.spans {
		k, ok := index[s.name]
		if !ok {
			k = len(out)
			index[s.name] = k
			out = append(out, spanStat{name: s.name})
			durs = append(durs, nil)
			allocs = append(allocs, 0)
		}
		st := &out[k]
		st.n++
		st.total += s.end - s.start
		st.self += selfTime(s.start, s.end, kids[i])
		st.cpu += s.cpu
		allocs[k] += s.alloc
		durs[k] = append(durs[k], float64(s.end-s.start))
	}
	for k := range out {
		out[k].p50 = time.Duration(median(durs[k]))
		out[k].allocPerRun = float64(allocs[k]) / float64(out[k].n)
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON, loadable at
// chrome://tracing or in Perfetto. Timestamps are microseconds of wall time
// since the tracer started.
func (t *tracer) writeChrome(w io.Writer, label string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"cpu_ms": ms(s.cpu), "alloc_mb": mb(float64(s.alloc))}
		if s.parent >= 0 {
			args["parent"] = t.spans[s.parent].name
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1, Args: args,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]string{"workload": label},
	})
}

// cpuTime returns the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the process's peak resident set size in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}

// readMem reads the runtime's cumulative heap-allocation and GC-cycle
// counters, the ones runtime.MemStats reports as TotalAlloc and NumGC,
// without stopping the world.
func readMem() (allocs, cycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func heapAllocs() uint64 {
	a, _ := readMem()
	return a
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func mb(bytes float64) float64   { return bytes / (1 << 20) }
