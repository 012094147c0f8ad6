package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	hilos "repro"
	"repro/internal/accel"
	"repro/internal/attention"
	"repro/internal/repcache"
	"repro/internal/tensor"
)

// size is the input size of the workloads. The benchmark runs fullSize;
// the tests run smaller ones.
type size struct {
	offline, online, preempt int // requests replayed by replay-offline, replay-online and replay-preempt
	tokens                   int // committed K/V tokens in ans-decode
}

var fullSize = size{offline: 100_000, online: 20_000, preempt: 20_000, tokens: 65_536}

// defaultSeed is the seed the golden digests of the replays were taken at.
const defaultSeed = 1

// A job is one workload prepared for a seed: its generated inputs and the
// reference its outputs are checked against.
type job struct {
	work    float64 // units of work one op completes
	kvBytes float64 // FP16 K/V bytes one op reads near storage (ans-decode)
	// op runs one operation, recording spans into tr, and returns a
	// function that checks the operation's output. Only op is timed.
	op func(tr *tracer) (check func() error, err error)
}

// A workload is one set of inputs the benchmark runs.
type workload struct {
	name    string
	unit    string // what work_per_s counts
	warmup  int    // ops run before timing; they count in setup_s
	prepare func(seed int64, sz size) (*job, error)
}

var workloads = []workload{
	{"figures", "tables", 10, prepareFigures},
	{"replay-offline", "requests", 2, prepareReplay(offline)},
	{"replay-online", "requests", 2, prepareReplay(online)},
	{"replay-preempt", "requests", 2, prepareReplay(preempt)},
	{"ans-decode", "KV tokens", 3, prepareDecode},
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// goldenJSON maps each checked output to the hex SHA-256 it has at the
// default seed and full size: "figures/<id>" for each table's String(),
// and the workload name for the JSON of each replay's Summary. Regenerate
// it with `go test -run TestGolden -update` in this directory.
//
//go:embed testdata/golden.json
var goldenJSON []byte

var golden = func() map[string]string {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("bench: testdata/golden.json: %v", err))
	}
	return g
}()

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func matchGolden(key, got string) error {
	want, ok := golden[key]
	switch {
	case !ok:
		return fmt.Errorf("%s: no golden digest", key)
	case got != want:
		return fmt.Errorf("%s: digest %.12s, golden %.12s", key, got, want)
	}
	return nil
}

// tableIDs are the simulated paper tables figures regenerates: every
// experiment except fig18c, which scores the functional retrieval suite
// for about ten seconds instead of running the simulator.
func tableIDs() []string {
	var ids []string
	for _, id := range hilos.ExperimentIDs() {
		if id != "fig18c" {
			ids = append(ids, id)
		}
	}
	return ids
}

// prepareFigures sets up one cold pass over the simulated tables. The
// tables have no generated input, so the seed changes nothing; every pass
// must reproduce the golden tables.
func prepareFigures(int64, size) (*job, error) {
	sim, err := hilos.New()
	if err != nil {
		return nil, err
	}
	ids := tableIDs()
	spans := make([]string, len(ids))
	for i, id := range ids {
		spans[i] = "experiments." + id
	}
	return &job{work: float64(len(ids)), op: func(tr *tracer) (func() error, error) {
		repcache.Reset()
		tables := make([]hilos.ExperimentTable, len(ids))
		for i, id := range ids {
			s := tr.begin(spans[i])
			t, err := sim.ExperimentByID(id)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			tables[i] = t
		}
		return func() error {
			for i, t := range tables {
				if err := matchGolden("figures/"+ids[i], digest([]byte(t.String()))); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}}, nil
}

// A replayMode is the dispatch path a replay workload drives.
type replayMode int

const (
	offline replayMode = iota // close-at-admission, no priorities
	online                    // priorities and preemption, continuous batching
	preempt                   // priorities and preemption, close-at-admission
)

func (m replayMode) name() string {
	return [...]string{"replay-offline", "replay-online", "replay-preempt"}[m]
}

// requests returns how many requests the replay has at size sz.
func (m replayMode) requests(sz size) int {
	return [...]int{sz.offline, sz.online, sz.preempt}[m]
}

// replayInputs returns a replay's model, trace and cluster options: n
// Azure-mix requests at 4 per second on OPT-30B, over two 8-device HILOS
// hosts, a FlexGen-DRAM host and an 8-device InstInfer tier, least-loaded,
// closing batches at 16 requests or 30 s. The online and preempt replays
// add a 60-second-deadline priority class for Short requests and
// preemption; online also batches continuously. With continuous batching a
// batch starts as soon as it forms, so there is never an unstarted batch to
// evict: only the preempt replay evicts.
func replayInputs(mode replayMode, seed int64, n int) (hilos.Model, []hilos.TimedRequest, []hilos.ClusterOption, error) {
	m, err := hilos.ModelByName("OPT-30B")
	if err != nil {
		return hilos.Model{}, nil, nil, err
	}
	reqs, err := hilos.NewTimedWorkloadTrace(seed, n, 4)
	if err != nil {
		return hilos.Model{}, nil, nil, err
	}
	opts := []hilos.ClusterOption{
		hilos.WithFleet(hilos.SystemHILOS, 2, 8),
		hilos.WithFleet(hilos.SystemFlexDRAM, 1, 0),
		hilos.WithFleet(hilos.SystemInstInfer, 1, 8),
		hilos.WithAdmission(16, 30),
		hilos.WithDispatchPolicy(hilos.DispatchLeastLoaded),
	}
	if mode != offline {
		opts = append(opts,
			hilos.WithPriorityClasses(hilos.PriorityClass{Class: "Short", Priority: 1, DeadlineSec: 60}),
			hilos.WithPreemption(),
		)
	}
	if mode == online {
		opts = append(opts, hilos.WithContinuousBatching())
	}
	return m, reqs, opts, nil
}

func summaryDigest(s hilos.ClusterSummary) (string, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("encoding summary: %w", err)
	}
	return digest(b), nil
}

// prepareReplay sets up one replay of a generated trace through the
// cluster. Every replay must produce the first one's Summary bit for bit,
// and at the default seed and full size the golden one.
func prepareReplay(mode replayMode) func(int64, size) (*job, error) {
	name := mode.name()
	return func(seed int64, sz size) (*job, error) {
		n, full := mode.requests(sz), mode.requests(fullSize)
		m, reqs, opts, err := replayInputs(mode, seed, n)
		if err != nil {
			return nil, err
		}
		var ref string
		return &job{work: float64(n), op: func(tr *tracer) (func() error, error) {
			o := opts
			if tr != nil {
				o = append(opts[:len(opts):len(opts)], hilos.WithClusterTelemetry(tr.cluster))
			}
			s := tr.begin("hilos.Cluster")
			sum, err := hilos.Cluster(m, reqs, o...)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			return func() error {
				if sum.Completed != n {
					return fmt.Errorf("%s: %d of %d requests completed", name, sum.Completed, n)
				}
				d, err := summaryDigest(sum)
				switch {
				case err != nil:
					return err
				case ref == "":
					ref = d
					if seed == defaultSeed && n == full {
						return matchGolden(name, d)
					}
				case d != ref:
					return fmt.Errorf("%s: summary digest %.12s differs from the first replay's %.12s", name, d, ref)
				}
				return nil
			}, nil
		}}, nil
	}
}

// The ans-decode shape: Mixtral-8x7B's 32 query heads share 8 KV heads, so
// one device head serves a group of 4 queries with head dimension 128.
// decodeBuffer tokens of new K/V wait in host DRAM for delayed writeback.
const (
	decodeGroup   = 4
	decodeHeadDim = 128
	decodeBuffer  = 16
	decodeTol     = 3e-3
)

// prepareDecode sets up one decode step of device-head attention near
// storage: the host scores the query against the buffered keys
// (attention.Scores), and the accelerator attends over the committed FP16
// cache and merges the host partial. Every output must be within decodeTol
// of exact attention over the whole FP16 cache, computed here once, and
// equal the first op's bit for bit.
func prepareDecode(seed int64, sz size) (*job, error) {
	rng := rand.New(rand.NewSource(seed))
	q := tensor.RandMat(rng, decodeGroup, decodeHeadDim, 1).RoundFP16()
	k := tensor.RandMat(rng, sz.tokens, decodeHeadDim, 1).RoundFP16()
	v := tensor.RandMat(rng, sz.tokens, decodeHeadDim, 1).RoundFP16()
	kBuf := tensor.RandMat(rng, decodeBuffer, decodeHeadDim, 1).RoundFP16()
	vBuf := tensor.RandMat(rng, decodeBuffer, decodeHeadDim, 1).RoundFP16()
	a, err := accel.New(accel.Config{DGroup: decodeGroup, HeadDim: decodeHeadDim})
	if err != nil {
		return nil, err
	}
	want := attention.Ref(q, tensor.VStack(k, kBuf), tensor.VStack(v, vBuf), nil).Data
	var first []float32
	return &job{
		work:    float64(sz.tokens + decodeBuffer),
		kvBytes: float64(2 * sz.tokens * decodeHeadDim * 2),
		op: func(tr *tracer) (func() error, error) {
			s := tr.begin("attention.Scores")
			host := attention.Scores(q, kBuf)
			tr.end(s)
			s = tr.begin("accel.Attention")
			out, err := a.Attention(q, k, v, nil, host, vBuf)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			return func() error {
				for i, x := range out.Data {
					if d := math.Abs(float64(x) - float64(want[i])); !(d <= decodeTol) {
						return fmt.Errorf("ans-decode: output %d is %g, reference %g", i, x, want[i])
					}
				}
				if first == nil {
					first = out.Data
					return nil
				}
				for i, x := range out.Data {
					if math.Float32bits(x) != math.Float32bits(first[i]) {
						return fmt.Errorf("ans-decode: output %d is %g, first op's %g", i, x, first[i])
					}
				}
				return nil
			}, nil
		},
	}, nil
}
