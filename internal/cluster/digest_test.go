package cluster

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/summary_digests.txt from the current event loop")

const summaryDigestFile = "summary_digests.txt"

// digestTrace is a dense mixed trace built to stress event ordering: arrival
// times on a 0.25 s grid (many simultaneous arrivals, and arrivals landing
// on wait-timeout, deadline and completion instants), IDs permuted against
// arrival order, three classes and three priorities with integral
// deadlines on the urgent tiers.
func digestTrace(seed int64, n int) []Request {
	rng := rand.New(rand.NewSource(seed))
	classes := []workload.Class{workload.Short, workload.Medium, workload.Long}
	ids := rng.Perm(n)
	reqs := make([]Request, n)
	at := 0.0
	for i := range reqs {
		at += float64(rng.Intn(3)) * 0.25
		r := Request{ID: ids[i], Class: classes[rng.Intn(len(classes))], ArrivalSec: at}
		if p := rng.Intn(3); p > 0 {
			r.Priority = p
			r.DeadlineSec = float64(1 + rng.Intn(20))
		}
		reqs[i] = r
	}
	return reqs
}

// digestCase is one pinned Run configuration.
type digestCase struct {
	mode      string // close, continuous, preempt, preempt+continuous
	faults    bool
	policy    Policy
	telemetry bool
}

func (c digestCase) name() string {
	return fmt.Sprintf("%s_faults%t_%s_telemetry%t", c.mode, c.faults, c.policy, c.telemetry)
}

// digestCases crosses the four admission modes, faults off and on, every
// policy, and telemetry off and on.
func digestCases() []digestCase {
	var cs []digestCase
	for _, mode := range []string{"close", "continuous", "preempt", "preempt+continuous"} {
		for _, f := range []bool{false, true} {
			for _, p := range Policies() {
				for _, tel := range []bool{false, true} {
					cs = append(cs, digestCase{mode: mode, faults: f, policy: p, telemetry: tel})
				}
			}
		}
	}
	return cs
}

const digestRequests = 1200

// run replays the case's trace and returns its Summary.
func (c digestCase) run(t *testing.T) Summary {
	t.Helper()
	cfg, reqs := c.config(t)
	if c.telemetry {
		stream := telemetry.NewStream()
		defer stream.Close()
		cfg.Telemetry = NewTelemetry(telemetry.NewRegistry(), stream)
	}
	s, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// config returns the case's telemetry-free configuration and trace.
func (c digestCase) config(t *testing.T) (Config, []Request) {
	t.Helper()
	reqs := digestTrace(5, digestRequests)
	fleet := faultFleet()
	cfg := Config{
		Model:  model.OPT30B,
		Fleet:  fleet,
		Policy: c.policy,
		Admission: Admission{
			MaxBatch:           4,
			MaxWaitSec:         3,
			MaxBacklog:         64,
			Preemption:         strings.HasPrefix(c.mode, "preempt"),
			ContinuousBatching: strings.HasSuffix(c.mode, "continuous"),
		},
	}
	if c.faults {
		horizon := reqs[len(reqs)-1].ArrivalSec + 100
		events, err := faults.GenerateFailStops(5, len(fleet), horizon, 60, 15)
		if err != nil {
			t.Fatal(err)
		}
		// Fail-stops with repairs, transient batch errors frequent enough to
		// trip the circuit breaker, and a wear budget that retires the
		// flash-writing pipeline partway through.
		cfg.Faults = mustInjector(t, faults.Plan{
			Seed:            5,
			Events:          events,
			TransientProb:   0.3,
			WearBudgetBytes: 60e9,
		}, len(fleet))
		cfg.Retry = DefaultRetryPolicy()
	}
	return cfg, reqs
}

func summaryDigest(t *testing.T, s Summary) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSummaryDigests pins Run's Summaries, bit for bit, across admission
// modes, fault injection, policies and telemetry: any change to event order,
// batch formation, placement or accounting shows up as a digest mismatch.
// It also checks that the faulted cases exercise every recovery path, so
// the digests cover what they claim to. Run with -update to re-record.
func TestSummaryDigests(t *testing.T) {
	path := filepath.Join("testdata", summaryDigestFile)
	cases := digestCases()
	got := make(map[string]string, len(cases))
	var preempted, retried, failedOver, quarantines, wearOuts, faulted int
	for _, c := range cases {
		s := c.run(t)
		got[c.name()] = summaryDigest(t, s)
		preempted += s.PreemptedBatches
		retried += s.RetriedBatches
		failedOver += s.FailedOverBatches
		quarantines += s.Quarantines
		faulted += s.FaultsInjected
		for _, ps := range s.Pipelines {
			if ps.WearOut {
				wearOuts++
			}
		}
	}
	t.Logf("preempted %d, retried %d, failed over %d batches; %d quarantines, %d wear-outs, %d faults",
		preempted, retried, failedOver, quarantines, wearOuts, faulted)
	for name, n := range map[string]int{
		"preemptions": preempted, "retries": retried, "failovers": failedOver,
		"quarantines": quarantines, "wear-outs": wearOuts, "injected faults": faulted,
	} {
		if n == 0 {
			t.Errorf("no case exercised %s", name)
		}
	}
	if *update {
		var b strings.Builder
		for _, c := range cases {
			fmt.Fprintf(&b, "%s %s\n", c.name(), got[c.name()])
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Errorf("%s holds %d digests, want %d", path, len(want), len(cases))
	}
	for _, c := range cases {
		if got[c.name()] != want[c.name()] {
			t.Errorf("%s: summary digest %s, recorded %s", c.name(), got[c.name()], want[c.name()])
		}
	}
}
