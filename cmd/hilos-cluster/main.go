// Command hilos-cluster evaluates event-driven scheduling over a
// heterogeneous fleet of simulated inference systems: the
// production-deployment question the paper's offline-inference framing
// leads to — given mixed hardware tiers and mixed online/offline traffic,
// which requests should run where, and when?
//
// Usage:
//
//	hilos-cluster                                # default fleet, all policies
//	hilos-cluster -fleet hilos:2x16,flex-dram:1,instinfer:1x16
//	hilos-cluster -n 96 -rate 1.5 -seed 7        # Poisson arrivals
//	hilos-cluster -arrivals bursty               # two-state MMPP arrivals
//	hilos-cluster -trace reqs.csv                # replay a recorded trace
//	hilos-cluster -policy cheapest-feasible      # one policy only
//	hilos-cluster -sweep 0.5,1,2,4               # arrival-rate sweep
//	hilos-cluster -priority Short=1@15 -preempt  # online tier w/ deadline
//	hilos-cluster -continuous                    # re-form batches at dispatch
//	hilos-cluster -metrics-addr :8080            # live /metrics + /events
//	hilos-cluster -trace-out cluster.json        # Chrome trace of the run
//	hilos-cluster -replay-speed 60               # 1 wall second = 60 sim s
//	hilos-cluster -faults 'fail-stop:pipe=0,at=120,repair=60'
//	hilos-cluster -faults 'transient:prob=0.05;wear-out:budget=2e12'
//	hilos-cluster -mtbf 600 -mttr 60             # generated fail-stop schedule
//	hilos-cluster -list-systems
//
// Observability: -metrics-addr serves live stats over HTTP while runs
// execute — GET /metrics returns a JSON snapshot of every counter, gauge
// and histogram (cluster, sim and report-cache subsystems) plus event-
// stream accounting, and GET /events streams newline-delimited JSON
// scheduler events as they happen (bounded per-client buffers; laggards
// drop events). -trace-out writes the last run's batch schedule as Chrome
// trace JSON for chrome://tracing. -replay-speed slaves the simulated
// clock to the wall clock at the given multiple (1 = real time) so /events
// can be watched live; it delays event processing only and never changes
// the schedule. -serve-linger keeps the stats server up after runs finish
// so scripts can scrape the final state.
//
// Fleet syntax: comma-separated system[:count[xdevices]] terms — e.g.
// "hilos:2x16" is two HILOS pipelines with 16 SmartSSDs each, "flex-dram:1"
// one DRAM-baseline pipeline. Any registered engine system is accepted.
//
// Admission: -batch is the per-class target batch size; a partial batch is
// released once its oldest request has waited -wait seconds. -backlog caps
// admitted-but-unstarted requests (0 = unbounded); arrivals beyond the cap
// are rejected and reported.
//
// Scheduling: -priority tags workload classes with an online tier
// (class=priority[@deadlineSec], comma-separated); -preempt enables
// deadline-aware preemption (deadline-expired batches dispatch immediately
// and evict unstarted lower-priority batches, which re-enqueue); -continuous
// re-forms batches at dispatch time so a freed pipeline re-packs the oldest
// waiting work.
//
// Robustness: -faults injects a deterministic fault plan — semicolon-
// separated kind:key=value,... terms:
//
//	fail-stop:pipe=0,at=120,repair=60   pipeline 0 down at t=120 for 60 s
//	straggler:pipe=1,at=200,for=300,factor=3
//	transient:prob=0.05[,pipe=1]        per-batch error probability
//	wear-out:budget=2e12[,pipe=0]       flash endurance budget in bytes
//
// -mtbf (with optional -mttr) generates a per-pipeline exponential
// fail-stop schedule over the trace horizon instead, seeded by -seed.
// -max-retries bounds per-batch retries (exponential backoff, quarantine
// and failover per the default retry policy). Every run reports the jobs
// lost — always 0: admitted work completes, fails terminally, or is
// rejected, never vanishes.
//
// Dispatch policies (-policy, default "all"):
//
//	least-loaded       earliest-available pipeline (pure load balancing)
//	cheapest-feasible  lowest amortized $ for the batch among feasible
//	                   pipelines (§6.6 hardware pricing over 3 years)
//	fastest-eta        earliest completion, counting queueing
package main

import (
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	hilos "repro"
)

func main() {
	modelName := flag.String("model", "OPT-30B", "Table 2 model name")
	fleetSpec := flag.String("fleet", "hilos:2x8,flex-dram:1", "fleet composition: system[:count[xdevices]],...")
	n := flag.Int("n", 64, "number of generated requests (ignored with -trace)")
	rate := flag.Float64("rate", 1.0, "mean arrival rate, requests/second (ignored with -trace)")
	arrivals := flag.String("arrivals", "poisson", "arrival process: poisson, uniform or bursty (ignored with -trace)")
	seed := flag.Int64("seed", 7, "workload seed (ignored with -trace)")
	traceFile := flag.String("trace", "", "replay an arrival-trace CSV instead of generating one")
	batch := flag.Int("batch", 8, "admission: target batch size per class")
	wait := flag.Float64("wait", 30, "admission: max seconds the oldest queued request waits")
	backlog := flag.Int("backlog", 0, "admission: reject arrivals beyond this unstarted backlog (0 = unbounded)")
	priority := flag.String("priority", "", "priority classes: class=priority[@deadlineSec],... (e.g. Short=1@15)")
	preempt := flag.Bool("preempt", false, "enable deadline-aware preemption of unstarted lower-priority batches")
	continuous := flag.Bool("continuous", false, "re-form batches at dispatch time (continuous batching)")
	policy := flag.String("policy", "all", "dispatch policy, or \"all\" to compare")
	sweep := flag.String("sweep", "", "comma-separated arrival rates to sweep (e.g. 0.5,1,2)")
	listSystems := flag.Bool("list-systems", false, "list registered engine systems and exit")
	metricsAddr := flag.String("metrics-addr", "", "serve live stats over HTTP on this address (GET /metrics, /events); :0 picks a free port")
	traceOut := flag.String("trace-out", "", "write the last run's batch schedule as Chrome trace JSON to this file")
	replaySpeed := flag.Float64("replay-speed", 0, "slave the simulated clock to the wall clock at this multiple (1 = real time; 0 = fast-forward)")
	serveLinger := flag.Float64("serve-linger", 0, "with -metrics-addr, keep serving this many seconds after runs complete")
	faultSpec := flag.String("faults", "", "inject faults: kind:key=value,...;... (e.g. 'fail-stop:pipe=0,at=120,repair=60;transient:prob=0.05')")
	mtbf := flag.Float64("mtbf", 0, "generate a fail-stop schedule with this mean time between failures in seconds (0 = off)")
	mttr := flag.Float64("mttr", 60, "mean repair window in seconds for the generated schedule (with -mtbf)")
	maxRetries := flag.Int("max-retries", 3, "bound per-batch retries under faults (0 = every failure is terminal)")
	flag.Parse()

	if *listSystems {
		for _, sys := range hilos.Systems() {
			fmt.Printf("%-12s %s\n", sys, hilos.DescribeSystem(sys))
		}
		return
	}

	m, err := hilos.ModelByName(*modelName)
	check(err)
	fleet, fleetPipes, err := parseFleet(*fleetSpec)
	check(err)
	policies, err := parsePolicies(*policy)
	check(err)
	process, err := parseArrivals(*arrivals)
	check(err)
	priorities, err := parsePriorities(*priority)
	check(err)
	basePlan, err := parseFaults(*faultSpec)
	check(err)
	faultsOn := basePlan != nil || *mtbf > 0

	// Observability: one registry/stream pair spans every run of the
	// invocation (sweeps and policy comparisons accumulate), so /metrics
	// scraped mid-sweep shows live totals.
	var reg *hilos.MetricsRegistry
	var stream *hilos.EventStream
	var telOpts []hilos.ClusterOption
	if *metricsAddr != "" {
		reg = hilos.NewMetricsRegistry()
		stream = hilos.NewEventStream()
		hilos.EnableSimTelemetry(reg, stream)
		hilos.EnableCacheMetrics(reg)
		telOpts = append(telOpts, hilos.WithClusterTelemetry(hilos.NewClusterTelemetry(reg, stream)))
		ln, err := net.Listen("tcp", *metricsAddr)
		check(err)
		fmt.Printf("live stats on http://%s (GET /metrics, /events)\n", ln.Addr())
		srv := &http.Server{Handler: hilos.TelemetryHandler(reg, stream)}
		go func() { _ = srv.Serve(ln) }()
	}
	if *replaySpeed > 0 {
		telOpts = append(telOpts, hilos.WithClusterPace(newPacer(*replaySpeed)))
	}

	rates := []float64{*rate}
	if *sweep != "" {
		rates = nil
		for _, f := range strings.Split(*sweep, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			check(err)
			rates = append(rates, r)
		}
		if *traceFile != "" {
			check(fmt.Errorf("-sweep and -trace are mutually exclusive"))
		}
	}

	var lastSummary hilos.ClusterSummary
	var lastLabel string
	haveSummary := false
	for _, r := range rates {
		reqs, label, err := loadTrace(*traceFile, *seed, *n, r, process)
		check(err)
		var faultOpts []hilos.ClusterOption
		if faultsOn {
			plan := hilos.FaultPlan{Seed: *seed}
			if basePlan != nil {
				plan = *basePlan
				plan.Seed = *seed
			}
			if *mtbf > 0 {
				// Generated fail-stops cover the whole trace horizon plus a
				// recovery tail, so late arrivals still see churn.
				horizon := 0.0
				for _, req := range reqs {
					if req.ArrivalSec > horizon {
						horizon = req.ArrivalSec
					}
				}
				schedule, err := hilos.GenerateFailStops(*seed, fleetPipes, horizon+*mttr, *mtbf, *mttr)
				check(err)
				plan.Events = append(plan.Events, schedule...)
			}
			rp := hilos.DefaultClusterRetryPolicy()
			rp.MaxRetries = *maxRetries
			faultOpts = []hilos.ClusterOption{hilos.WithFaults(plan), hilos.WithRetryPolicy(rp)}
		}
		fmt.Printf("== %s | model %s | fleet %s | batch %d wait %gs", label, m.Name, *fleetSpec, *batch, *wait)
		if *backlog > 0 {
			fmt.Printf(" backlog %d", *backlog)
		}
		if *preempt {
			fmt.Print(" preempt")
		}
		if *continuous {
			fmt.Print(" continuous")
		}
		fmt.Println(" ==")
		for _, p := range policies {
			opts := append(append([]hilos.ClusterOption{}, fleet...),
				hilos.WithAdmission(*batch, *wait),
				hilos.WithMaxBacklog(*backlog),
				hilos.WithDispatchPolicy(p),
			)
			if len(priorities) > 0 {
				opts = append(opts, hilos.WithPriorityClasses(priorities...))
			}
			opts = append(opts, telOpts...)
			opts = append(opts, faultOpts...)
			if *preempt {
				opts = append(opts, hilos.WithPreemption())
			}
			if *continuous {
				opts = append(opts, hilos.WithContinuousBatching())
			}
			s, err := hilos.Cluster(m, reqs, opts...)
			check(err)
			printSummary(s)
			if faultsOn {
				printRobustness(s)
			}
			lastSummary, lastLabel, haveSummary = s, fmt.Sprintf("%s | %s", label, s.Policy), true
		}
		fmt.Println()
	}

	if *traceOut != "" {
		if !haveSummary {
			check(fmt.Errorf("-trace-out: no run to export"))
		}
		f, err := os.Create(*traceOut)
		check(err)
		check(hilos.WriteClusterTrace(f, lastSummary, lastLabel))
		check(f.Close())
		fmt.Printf("wrote cluster trace to %s (open in chrome://tracing)\n", *traceOut)
	}
	if stream != nil {
		// Terminate /events clients: their NDJSON responses end when the
		// stream closes, so scripted curls don't hang on a finished replay.
		defer stream.Close()
		if *serveLinger > 0 {
			fmt.Printf("runs complete; serving stats for another %gs\n", *serveLinger)
			time.Sleep(time.Duration(*serveLinger * float64(time.Second)))
		}
	}
}

// newPacer returns a pacing hook that slaves the simulated clock to the
// wall clock at the given speed multiple: before each scheduler event it
// sleeps until (simSec elapsed)/speed of wall time has passed since the
// first event. This is the replay boundary — the only place the toolchain
// touches the wall clock — and it delays event processing only; the
// schedule is bit-identical at any speed.
//
//lint:allow simdeterminism real-time replay pacing is the wall-clock serving boundary; the hook only delays event processing and never feeds back into scheduling
func newPacer(speed float64) func(simSec float64) {
	var start time.Time
	var base float64
	started := false
	return func(simSec float64) {
		if !started {
			started, start, base = true, time.Now(), simSec
			return
		}
		target := time.Duration((simSec - base) / speed * float64(time.Second))
		if d := target - time.Since(start); d > 0 {
			time.Sleep(d)
		}
	}
}

// maxFleetPipelines bounds the total pipeline count a -fleet spec may ask
// for, so a typo'd count cannot overflow the total or allocate a fleet no
// host could simulate.
const maxFleetPipelines = 1 << 16

// parseFleet turns "hilos:2x16,flex-dram:1" into fleet options, rejecting
// unregistered system names up front with the registry listing. It also
// returns the total pipeline count, which fault plans are sized against.
func parseFleet(spec string) ([]hilos.ClusterOption, int, error) {
	var opts []hilos.ClusterOption
	pipes := 0
	for _, term := range strings.Split(spec, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		sys, rest, _ := strings.Cut(term, ":")
		if !knownSystem(hilos.System(sys)) {
			return nil, 0, fmt.Errorf("unknown system %q in fleet term %q (known: %s)",
				sys, term, joinSystems())
		}
		count, devices := 1, 0
		if rest != "" {
			c, d, hasDev := strings.Cut(rest, "x")
			var err error
			if count, err = strconv.Atoi(c); err != nil || count < 1 {
				return nil, 0, fmt.Errorf("bad fleet term %q: count %q (want integer ≥ 1)", term, c)
			}
			if hasDev {
				if devices, err = strconv.Atoi(d); err != nil || devices < 0 {
					return nil, 0, fmt.Errorf("bad fleet term %q: devices %q (want integer ≥ 0)", term, d)
				}
			}
		}
		if count > maxFleetPipelines-pipes {
			return nil, 0, fmt.Errorf("fleet term %q takes the fleet past %d pipelines", term, maxFleetPipelines)
		}
		opts = append(opts, hilos.WithFleet(hilos.System(sys), count, devices))
		pipes += count
	}
	if len(opts) == 0 {
		return nil, 0, fmt.Errorf("empty fleet spec")
	}
	return opts, pipes, nil
}

// faultKeys lists the accepted spec keys per fault kind.
var faultKeys = map[hilos.FaultKind][]string{
	hilos.FaultFailStop:  {"pipe", "at", "repair"},
	hilos.FaultStraggler: {"pipe", "at", "for", "factor"},
	hilos.FaultTransient: {"pipe", "prob"},
	hilos.FaultWearOut:   {"pipe", "budget"},
}

// parseFaults turns a -faults spec — semicolon-separated kind:key=value,...
// terms — into a fault plan. Unknown kinds and keys are rejected with the
// registered vocabulary, so a typo never silently runs fault-free.
func parseFaults(spec string) (*hilos.FaultPlan, error) {
	if spec == "" {
		return nil, nil
	}
	plan := &hilos.FaultPlan{}
	for _, term := range strings.Split(spec, ";") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		kindStr, rest, _ := strings.Cut(term, ":")
		kind := hilos.FaultKind(strings.TrimSpace(kindStr))
		if !kind.Valid() {
			return nil, fmt.Errorf("unknown fault kind %q in term %q (known: %v)",
				kindStr, term, hilos.FaultKinds())
		}
		kv := map[string]float64{}
		for _, field := range strings.Split(rest, ",") {
			field = strings.TrimSpace(field)
			if field == "" {
				continue
			}
			k, v, ok := strings.Cut(field, "=")
			k = strings.TrimSpace(k)
			if !ok || !allowedFaultKey(kind, k) {
				return nil, fmt.Errorf("bad fault term %q: field %q (want %v=value)",
					term, field, faultKeys[kind])
			}
			x, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil || math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("bad fault term %q: %s=%q is not a finite number", term, k, v)
			}
			if k == "pipe" && (x < 0 || x != math.Trunc(x) || x >= maxFleetPipelines) {
				return nil, fmt.Errorf("bad fault term %q: pipe=%q is not a pipeline index", term, v)
			}
			kv[k] = x
		}
		pipe, hasPipe := kv["pipe"]
		switch kind {
		case hilos.FaultFailStop:
			plan.Events = append(plan.Events, hilos.FaultEvent{
				Kind: kind, Pipeline: int(pipe), AtSec: kv["at"], DurationSec: kv["repair"],
			})
		case hilos.FaultStraggler:
			plan.Events = append(plan.Events, hilos.FaultEvent{
				Kind: kind, Pipeline: int(pipe), AtSec: kv["at"], DurationSec: kv["for"], Factor: kv["factor"],
			})
		case hilos.FaultTransient:
			if hasPipe {
				plan.Events = append(plan.Events, hilos.FaultEvent{
					Kind: kind, Pipeline: int(pipe), Factor: kv["prob"],
				})
			} else {
				plan.TransientProb = kv["prob"]
			}
		case hilos.FaultWearOut:
			if hasPipe {
				plan.Events = append(plan.Events, hilos.FaultEvent{
					Kind: kind, Pipeline: int(pipe), BudgetBytes: kv["budget"],
				})
			} else {
				plan.WearBudgetBytes = kv["budget"]
			}
		}
	}
	return plan, nil
}

func allowedFaultKey(kind hilos.FaultKind, key string) bool {
	for _, k := range faultKeys[kind] {
		if k == key {
			return true
		}
	}
	return false
}

func knownSystem(sys hilos.System) bool {
	for _, s := range hilos.Systems() {
		if s == sys {
			return true
		}
	}
	return false
}

func joinSystems() string {
	var names []string
	for _, s := range hilos.Systems() {
		names = append(names, string(s))
	}
	return strings.Join(names, ", ")
}

// parsePolicies resolves -policy against the registered dispatch policies.
func parsePolicies(spec string) ([]hilos.DispatchPolicy, error) {
	if spec == "all" {
		return hilos.DispatchPolicies(), nil
	}
	for _, p := range hilos.DispatchPolicies() {
		if p == hilos.DispatchPolicy(spec) {
			return []hilos.DispatchPolicy{p}, nil
		}
	}
	var names []string
	for _, p := range hilos.DispatchPolicies() {
		names = append(names, string(p))
	}
	return nil, fmt.Errorf("unknown dispatch policy %q (known: %s, or \"all\")",
		spec, strings.Join(names, ", "))
}

// parseArrivals resolves -arrivals against the built-in processes.
func parseArrivals(spec string) (hilos.ArrivalProcess, error) {
	for _, p := range hilos.ArrivalProcesses() {
		if p == hilos.ArrivalProcess(spec) {
			return p, nil
		}
	}
	var names []string
	for _, p := range hilos.ArrivalProcesses() {
		names = append(names, string(p))
	}
	return "", fmt.Errorf("unknown arrival process %q (known: %s)",
		spec, strings.Join(names, ", "))
}

// parsePriorities turns "Short=1@15,Medium=0" into priority-class rules.
func parsePriorities(spec string) ([]hilos.PriorityClass, error) {
	if spec == "" {
		return nil, nil
	}
	var rules []hilos.PriorityClass
	for _, term := range strings.Split(spec, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		class, rest, ok := strings.Cut(term, "=")
		if !ok || class == "" {
			return nil, fmt.Errorf("bad priority term %q (want class=priority[@deadlineSec])", term)
		}
		prioStr, dlStr, hasDl := strings.Cut(rest, "@")
		prio, err := strconv.Atoi(prioStr)
		if err != nil || prio < 0 {
			return nil, fmt.Errorf("bad priority term %q: priority %q (want integer ≥ 0)", term, prioStr)
		}
		dl := 0.0
		if hasDl {
			if dl, err = strconv.ParseFloat(dlStr, 64); err != nil || !(dl >= 0) || math.IsInf(dl, 1) {
				return nil, fmt.Errorf("bad priority term %q: deadline %q (want finite seconds ≥ 0)", term, dlStr)
			}
		}
		rules = append(rules, hilos.PriorityClass{Class: class, Priority: prio, DeadlineSec: dl})
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("empty priority spec")
	}
	return rules, nil
}

func loadTrace(path string, seed int64, n int, rate float64, p hilos.ArrivalProcess) ([]hilos.TimedRequest, string, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		reqs, err := hilos.ReadArrivalTrace(f)
		return reqs, fmt.Sprintf("trace %s (%d requests)", path, len(reqs)), err
	}
	reqs, err := hilos.NewWorkloadTraceWithArrivals(seed, n, rate, p)
	return reqs, fmt.Sprintf("%d requests, %s %g req/s, seed %d", n, p, rate, seed), err
}

func printSummary(s hilos.ClusterSummary) {
	fmt.Printf("%-18s makespan %9.1fs  tok/s %8.1f  delay p50/p95/p99 %6.1f/%6.1f/%6.1fs",
		s.Policy, s.MakespanSec, s.Throughput(), s.DelayP50Sec, s.DelayP95Sec, s.DelayP99Sec)
	fmt.Printf("  cost $%.4f  energy %.1fkJ", s.TotalCostUSD, s.TotalEnergyJ/1e3)
	if s.RejectedJobs > 0 || s.FailedJobs > 0 {
		fmt.Printf("  rejected %d failed %d", s.RejectedJobs, s.FailedJobs)
	}
	if s.PreemptedJobs > 0 {
		fmt.Printf("  preempted %d", s.PreemptedJobs)
	}
	fmt.Println()
	if len(s.PerPriority) > 1 {
		for _, ps := range s.PerPriority {
			fmt.Printf("    prio %-2d %4d reqs  delay p50/p99 %6.1f/%6.1fs",
				ps.Priority, ps.Requests, ps.DelayP50Sec, ps.DelayP99Sec)
			if ps.DeadlineMisses > 0 {
				fmt.Printf("  missed %d deadlines", ps.DeadlineMisses)
			}
			if ps.PreemptedJobs > 0 {
				fmt.Printf("  preempted %d", ps.PreemptedJobs)
			}
			fmt.Println()
		}
	}
	for _, ps := range s.Pipelines {
		fmt.Printf("    %-16s %3d batches %4d jobs  busy %8.1fs  util %5.1f%%  $%.4f  %.1fkJ",
			ps.Name, ps.Batches, ps.Jobs, ps.BusySec, 100*ps.Utilization, ps.CostUSD, ps.EnergyJ/1e3)
		if ps.WriteBytes > 0 {
			fmt.Printf("  wrote %.1fGB", ps.WriteBytes/1e9)
			if ps.WearPct > 0 {
				fmt.Printf(" (%.4f%% PBW, %.0fMB/s)", ps.WearPct, ps.WritePressureBps/1e6)
			}
		}
		if ps.EnergyErr != "" {
			fmt.Printf("  (energy: %s)", ps.EnergyErr)
		}
		fmt.Println()
	}
	if s.TotalWriteBytes > 0 {
		fmt.Printf("    flash writes total %.1fGB\n", s.TotalWriteBytes/1e9)
	}
}

// printRobustness reports the recovery layer's accounting, ending with the
// job-conservation check scripts grep for: admitted work that neither
// completed nor failed terminally would be a lost job, and there are none.
func printRobustness(s hilos.ClusterSummary) {
	lost := s.Admitted - s.Completed - s.FailedJobs
	fmt.Printf("    robustness: faults %d  retried %d batches/%d jobs  failed-over %d/%d  quarantines %d  degraded %d/%d  lost %d jobs\n",
		s.FaultsInjected, s.RetriedBatches, s.RetriedJobs,
		s.FailedOverBatches, s.FailedOverJobs, s.Quarantines,
		s.DegradedBatches, s.DegradedJobs, lost)
	for _, ps := range s.Pipelines {
		if ps.Faults == 0 && ps.Quarantines == 0 && !ps.WearOut {
			continue
		}
		fmt.Printf("      %-16s faults %d  quarantines %d", ps.Name, ps.Faults, ps.Quarantines)
		if ps.WearOut {
			fmt.Print("  WORN OUT")
		}
		fmt.Println()
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hilos-cluster:", err)
		os.Exit(1)
	}
}
