package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// sortedDelayStats is the reference for Summary's queueing-delay fields:
// the mean summed in the given order, then nearest-rank percentiles read off
// a sorted copy.
func sortedDelayStats(delays []float64) [4]float64 {
	if len(delays) == 0 {
		return [4]float64{}
	}
	mean := stats.Mean(delays)
	sorted := append([]float64(nil), delays...)
	sort.Float64s(sorted)
	at := func(p float64) float64 {
		rank := int(math.Ceil(p / 100 * float64(len(sorted))))
		return sorted[min(max(rank, 1), len(sorted))-1]
	}
	return [4]float64{mean, at(50), at(95), at(99)}
}

// delayTrace is a random trace over 1–4 priority levels with many tied
// arrivals (a 0.5 s grid) and deadlines on the urgent levels.
func delayTrace(rng *rand.Rand, n int) []Request {
	levels := 1 + rng.Intn(4)
	classes := []workload.Class{workload.Short, workload.Medium, workload.Long}
	reqs := make([]Request, n)
	at := 0.0
	for i, id := range rng.Perm(n) {
		at += float64(rng.Intn(3)) * 0.5
		r := Request{ID: id, Class: classes[rng.Intn(len(classes))], ArrivalSec: at}
		if p := rng.Intn(levels); p > 0 {
			r.Priority = 2 * p // sparse levels: priorities are not a dense 0..levels-1 range
			r.DeadlineSec = float64(1 + rng.Intn(30))
		}
		reqs[i] = r
	}
	return reqs
}

// TestSummaryDelayStatsMatchSort recomputes every queueing-delay statistic
// of the Summary from its own Assignments, the way a reader would: each
// completed attempt contributes StartSec − arrival per member, in
// assignment order, overall and per priority. The statistics must match a
// full sort with nearest-rank percentiles bit for bit, over traces with
// backlog-cap rejections in every admission mode.
func TestSummaryDelayStatsMatchSort(t *testing.T) {
	modes := []Admission{
		{MaxBatch: 4, MaxWaitSec: 3, MaxBacklog: 24},
		{MaxBatch: 4, MaxWaitSec: 3, MaxBacklog: 24, ContinuousBatching: true},
		{MaxBatch: 4, MaxWaitSec: 3, MaxBacklog: 24, Preemption: true},
	}
	rng := rand.New(rand.NewSource(26))
	rejected := 0
	for trial := 0; trial < 40; trial++ {
		reqs := delayTrace(rng, 1+rng.Intn(400))
		for _, adm := range modes {
			s, err := Run(Config{Model: model.OPT30B, Fleet: faultFleet(), Policy: LeastLoaded, Admission: adm}, reqs)
			if err != nil {
				t.Fatal(err)
			}
			rejected += s.RejectedJobs
			var all []float64
			perPrio := map[int][]float64{}
			for _, a := range s.Assignments {
				if a.Pipeline < 0 || a.Aborted {
					continue
				}
				for _, arr := range a.Batch.Arrivals {
					all = append(all, a.StartSec-arr)
					perPrio[a.Batch.Priority] = append(perPrio[a.Batch.Priority], a.StartSec-arr)
				}
			}
			name := fmt.Sprintf("trial %d, %d requests, %+v", trial, len(reqs), adm)
			checkDelayStats(t, name, [4]float64{s.DelayMeanSec, s.DelayP50Sec, s.DelayP95Sec, s.DelayP99Sec}, sortedDelayStats(all))
			for _, ps := range s.PerPriority {
				checkDelayStats(t, fmt.Sprintf("%s, priority %d", name, ps.Priority),
					[4]float64{ps.DelayMeanSec, ps.DelayP50Sec, ps.DelayP95Sec, ps.DelayP99Sec}, sortedDelayStats(perPrio[ps.Priority]))
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no trace hit the backlog cap")
	}
}

func checkDelayStats(t *testing.T, name string, got, want [4]float64) {
	t.Helper()
	for i, field := range []string{"mean", "p50", "p95", "p99"} {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: delay %s %v, sorted reference %v", name, field, got[i], want[i])
		}
	}
}

// A class whose every request is rejected at the backlog cap never gets a
// queue: the Summary lists its priority with nothing admitted, and the
// telemetry snapshot has no queue_depth gauge for it. The digest pins the
// Summary and the snapshot together as the event loop produced them before
// queues were interned.
func TestRejectedClassCreatesNoQueue(t *testing.T) {
	const want = "080813799f349fc43334a4598ffd410c2ee2668c6ee56fc5c6846a0a5259fb85"
	// Three Medium requests fill the single slow pipeline and the backlog
	// cap of 2; the Short requests at priority 1 all arrive while it is
	// full, and the Medium ones after them are admitted again as the
	// backlog drains.
	var reqs []Request
	for i, at := range []float64{0, 0, 1, 2, 3, 3, 4, 150, 250, 350} {
		r := Request{ID: 10 - i, Class: workload.Medium, ArrivalSec: at}
		if at >= 2 && at <= 4 {
			r.Class, r.Priority, r.DeadlineSec = workload.Short, 1, 5
		}
		reqs = append(reqs, r)
	}
	reg := telemetry.NewRegistry()
	s, err := Run(Config{
		Model:     model.OPT30B,
		Fleet:     []Pipeline{{Name: "slow", Run: constEngine(100)}},
		Policy:    LeastLoaded,
		Admission: Admission{MaxBatch: 1, MaxBacklog: 2},
		Telemetry: NewTelemetry(reg, nil),
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if ps, ok := s.PriorityByClass(1); !ok || ps.Requests != 4 || ps.Admitted != 0 {
		t.Fatalf("priority 1 stats %+v (listed %t), want 4 requests, none admitted", ps, ok)
	}
	if _, ok := snap.Gauges["cluster.queue_depth.p1.Short"]; ok {
		t.Error("a class with every request rejected has a queue_depth gauge")
	}
	if _, ok := snap.Gauges["cluster.queue_depth.p0.Medium"]; !ok {
		t.Error("the admitted class has no queue_depth gauge")
	}
	b, err := json.Marshal(struct {
		Summary  Summary
		Snapshot telemetry.Snapshot
	}{s, snap})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("Summary and snapshot digest %s, want %s\n%s", got, want, b)
	}
}
