// Package hilos is a full-system reproduction of "A Cost-Effective
// Near-Storage Processing Solution for Offline Inference of Long-Context
// LLMs" (HILOS, ASPLOS 2026).
//
// HILOS accelerates offloading-based batched LLM inference by moving the
// KV-cache-bound attention computation into near-storage processing (NSP)
// devices — SmartSSDs with an FPGA behind a private PCIe switch — so the
// terabyte-scale KV cache never crosses the host interconnect. Three
// techniques make that practical: attention near storage (§4.1),
// cooperative X-cache execution between GPU and devices (§4.2), and delayed
// KV-cache writeback (§4.3), backed by a memory-efficient blocked attention
// accelerator (§4.4).
//
// Because the original system requires SmartSSD/GPU hardware, this
// repository substitutes two coupled simulators, both implemented from
// scratch in pure Go:
//
//   - a functional substrate with exact attention numerics (two-pass online
//     softmax, 128-token blocked dataflow with online transpose, grouped
//     query heads on the accelerator model, X-cache regeneration,
//     delayed-writeback merging) under FP16 storage with FP32
//     accumulation; and
//   - a timing substrate: a deterministic discrete-event model of the
//     paper's testbed (A100/H100, Xeon host, PCIe topology, PM9A3 SSDs,
//     SmartSSDs with internal P2P paths and an accelerator cycle model),
//     on which HILOS and all baselines (FlexGen SSD/DRAM/16-SSD,
//     DeepSpeed+UVM, multi-node vLLM) are evaluated.
//
// # The Engine abstraction
//
// Every simulated system is one row of a static table in internal/engine,
// in the paper's Fig. 10 order: its identifier, its one-line description,
// how it binds to a testbed, device count, α and spill interval, its
// hardware, and whether it is lossy. The hardware is one description —
// hosts, GPU model and count, plain SSDs, SmartSSDs, accelerators on or off
// — that both the §6.6 price and the Fig. 17(a) energy model read, with
// unit prices and powers from the testbed. An Engine — Name, Describe, Run,
// PriceUSD, Energy and Lossy — is that row bound to a Simulator's hardware
// point; adding a backend is one table row. Nothing outside the table
// switches on system identifiers: Cluster prices, powers and marks its
// pipelines from their engines, the figure generators and their report memo
// resolve systems through it, and hilos-sim prints the engine's own energy.
//
// Three engines simulate a decoding step as a task graph: HILOS
// (internal/core), FlexGen-style offloading and InstInfer
// (internal/baseline). They decode the same way. Each layer's weights stream to the GPU, the GPU
// projects q/k/v, attention runs, and the GPU runs the MLP. They differ only
// in where attention runs and where the KV cache lives. So one builder,
// pipeline.Step, holds everything else: weight streaming, the GPU
// projections and MLP, the step barrier, the report fill, and the prefill
// model. Each engine adds only its own attention and KV tasks between a
// layer's Begin and End. vLLM is an analytical model and builds no graph.
// Simulate returns an error for a malformed request (Request.Validate); an
// engine's Run reports it as OOM with the reason.
//
// # Quickstart
//
// Construct a Simulator with functional options, then resolve any System
// through it:
//
//	sim, err := hilos.New(
//		hilos.WithDevices(16),        // SmartSSD count for NSP engines
//		hilos.WithAlpha(0.5),         // or hilos.AlphaAuto (default)
//		hilos.WithSpillInterval(16),  // delayed-writeback interval c
//	)
//	if err != nil { ... }
//	m, _ := hilos.ModelByName("OPT-66B")
//	req := hilos.Request{Model: m, Batch: 16, Context: 64 * 1024, OutputLen: 64}
//	rep, err := sim.Simulate(hilos.SystemHILOS, req)
//	// or: eng, _ := sim.Engine(hilos.SystemHILOS); rep = eng.Run(req)
//
// An Engine's Energy integrates the Fig. 17(a) model of its system's
// hardware over a report and returns an EnergyBreakdown; the experiments
// behind every figure and table of the paper are available via
// ExperimentIDs and ExperimentByID, and the accuracy harness via
// AccuracySuite.
//
// # Serving: the event-driven cluster scheduler
//
// The service layer is the internal/cluster scheduler: one discrete-event,
// simulated-clock loop over eight event kinds — request arrival, batch
// wait-timeout, request start-deadline, batch completion, fault injection,
// pipeline repair, retry release, and pipeline-free — draining
// per-priority-class queues through a fleet whose members may be backed by
// different engines. Cluster composes a fleet with functional
// options and drains a trace through it:
//
//	reqs, _ := hilos.NewTimedWorkloadTrace(7, 96, 0.8) // Poisson 0.8 req/s
//	sum, err := hilos.Cluster(m, reqs,
//		hilos.WithFleet(hilos.SystemHILOS, 2, 16),    // two 16-device NSP hosts
//		hilos.WithFleet(hilos.SystemFlexDRAM, 1, 0),  // one DRAM baseline
//		hilos.WithFleet(hilos.SystemInstInfer, 1, 16),// lossy 1/8 middle tier
//		hilos.WithAdmission(16, 30),                  // batch ≤16, wait ≤30 s
//		hilos.WithDispatchPolicy(hilos.DispatchCheapestFeasible),
//	)
//
// Dispatch policies: DispatchLeastLoaded (earliest-available pipeline),
// DispatchCheapestFeasible (lowest amortized dollars for the batch, §6.6
// pricing over a three-year life), and DispatchFastestETA (earliest
// completion counting queueing). Arrival processes: Poisson, uniform, and
// a two-state MMPP burst generator (NewWorkloadTraceWithArrivals).
//
// Online/offline co-scheduling layers three extensions over the same loop:
//
//   - WithPriorityClasses tags workload classes with a priority rank and a
//     start-deadline budget (e.g. Short as priority 1, 120 s), splitting
//     one trace into online and offline tiers; NewOnlineOfflineTrace
//     generates such a mix directly.
//   - WithPreemption makes deadlines actionable: an expiring request
//     forces its partial batch out immediately, and a batch that would
//     still miss its deadline evicts strictly-lower-priority *unstarted*
//     batches from the pipeline where it can start soonest. Evicted work
//     is re-enqueued and re-run, never dropped; running batches always
//     complete (preemption acts at batch boundaries only). The backlog cap
//     (WithMaxBacklog) then rejects only arrivals that do not outrank the
//     queued work, so offline queues absorb overload instead of bouncing
//     online traffic.
//   - WithContinuousBatching re-forms batches at dispatch time: a freed
//     pipeline re-packs up to the admission batch size from the oldest
//     waiting requests, instead of shipping the batch that happened to
//     close at admission.
//
// The summary reports makespan, queueing-delay percentiles (p50/p95/p99)
// overall and per priority class, rejected/failed/preempted work, deadline
// misses, and per-pipeline utilization/cost/energy attribution —
// deterministically, run after run. ReadArrivalTrace parses arrival-trace
// CSV (optional priority/deadline columns; legacy traces parse unchanged),
// and cmd/hilos-cluster sweeps fleet compositions, rates, arrival
// processes, scheduling modes and policies from the command line.
//
// Backlog is the offline special case, and it runs on the same event loop:
// a request trace whose every arrival is at t=0, queued by class with the
// batch size as MaxBatch and zero max wait, over WithPipelines(n) identical
// pipelines under DispatchLeastLoaded. A class's batch closes as soon as
// the batch size of its requests has arrived, in trace order, so full
// batches dispatch interleaved across classes; each class's partial tail
// closes at the t=0 flush, in class order. When an engine shrinks a batch,
// the remainder is charged as a smaller final pass simulated at its exact
// tail shape:
//
//	deploy, _ := hilos.New(hilos.WithDevices(16), hilos.WithPipelines(4))
//	trace, _ := hilos.NewWorkloadTrace(7, 200)
//	sum, err := deploy.Backlog(m, trace, 16, hilos.SystemHILOS)
//
// # Robustness: deterministic faults and self-healing dispatch
//
// Weeks-long offline batches on cheap near-storage hardware make device
// loss, gray failures and flash wear first-class events. internal/faults
// models them as a deterministic injector over the simulated clock, and the
// cluster loop reacts with a recovery layer; WithFaults(FaultPlan{...})
// wires a plan into Cluster, and WithRetryPolicy tunes the reaction.
//
// The fault vocabulary (FaultKinds): fail-stop takes a pipeline down at a
// scheduled instant and repairs it a window later — the running batch is
// killed mid-flight (its flash writes prorated by run fraction) and queued
// work fails over; transient is a per-batch execution error probability
// drawn from the plan's seeded PRNG (the batch burns its time, produces
// nothing, retries); straggler multiplies a pipeline's service time over a
// window — slow-but-alive; wear-out permanently retires a pipeline once its
// cumulative flash writes cross an endurance budget (the §6.6 budget acted
// on, not just reported — there is no repair for worn-out flash).
// GenerateFailStops draws an exponential MTBF/MTTR schedule per pipeline,
// deterministic per seed.
//
// The recovery layer reacts per attempt: a failed batch re-dispatches after
// deterministic exponential backoff (base doubling per attempt up to a cap,
// never jittered) until RetryPolicy.MaxRetries is exhausted, at which point
// it fails terminally — exactly once, however many attempts burned.
// FailureThreshold consecutive failures on one pipeline trip a circuit
// breaker: the pipeline is quarantined for QuarantineSec, its queued-ahead
// work fails over to the rest of the fleet immediately, and a repair event
// re-admits it. A FailureThreshold ≤ 0 or a zero QuarantineSec turns the
// breaker off; an empty quarantine would only fail work over. When every pipeline that could serve a batch is temporarily
// down or quarantined, placement defers to the earliest re-admission
// instant rather than failing; when the exact tiers are out of service
// permanently and a lossy tier (the InstInfer pipeline) can still serve,
// work degrades there and is counted as degraded service. Only a batch no
// fleet member can ever place fails for infeasibility.
//
// Four property tests pin the contracts under fuzzing with -race, on
// checked-in corpora (internal/cluster/testdata/fuzz):
//
//   - Reference schedule (FuzzEventLoopMatchesReference): Run's
//     assignments (aborted attempts and their reasons included),
//     rejections, terminal failures, preemption and recovery counters, and
//     per-pipeline flash writes and wear-out are bit-identical to a
//     deliberately naive reference scheduler in the tests, which rescans
//     every queue, deadline, pipeline, fault and retry at each instant
//     instead of keeping an event heap — across close-at-admission and
//     continuous batching, preemption, every policy, backlog caps, and
//     fault plans with fail-stops, transient errors, a straggler, wear
//     budgets, retries and the circuit breaker. The reference draws
//     transient fates from its own injector built from the same plan.
//   - Fault parity (FuzzFaultParity): an injector with nothing scheduled
//     produces a Summary bit-identical (reflect.DeepEqual) to no injector
//     at all — the fault machinery costs nothing and changes nothing until
//     a fault actually fires.
//   - Job conservation (FuzzJobConservation): under arbitrary fail-stop
//     schedules, transient rates, stragglers and wear budgets, every
//     admitted job completes, fails terminally, or is rejected exactly
//     once. Nothing is lost, nothing double-counted, and
//     Admitted == Completed + FailedJobs always balances.
//   - All modes at once (FuzzClusterAllModes): with preemption, continuous
//     batching, faults and telemetry all on, jobs are conserved, the
//     Summary is bit-identical with telemetry off, rejected and failed IDs
//     come out sorted, and the delay histogram counts exactly the
//     completed jobs.
//
// The Summary reports the whole story — FaultsInjected, RetriedBatches/
// RetriedJobs, FailedOverBatches/FailedOverJobs, Quarantines,
// DegradedBatches/DegradedJobs, and per-pipeline Faults/Quarantines/WearOut
// — and telemetry streams fault, repair, retry, quarantine, failover and
// degrade events as they happen. cmd/hilos-cluster drives it from the
// command line (-faults 'fail-stop:pipe=0,at=120,repair=60;transient:
// prob=0.05', -mtbf/-mttr for generated schedules, -max-retries), printing
// a robustness line that ends in "lost 0 jobs" — CI greps for exactly
// that. examples/chaos-replay walks through a full chaos run and its
// bit-identical replay.
//
// # Performance
//
// Every simulation bottoms out in internal/sim's Engine.Run, which
// schedules the per-step task graph with a dependency-counting event loop
// over min-heaps: tasks become ready when their last dependency finishes,
// each resource keeps its ready tasks in (earliest-start, id) heaps, and the
// earliest of the resources' head candidates runs next — O((n+m)·log n +
// n·R) for n tasks, m edges and R resources (a handful per graph). The
// original O(n²) rescanning list scheduler survives in internal/sim's tests
// as the oracle: a property test runs random DAGs (barriers, pure-latency
// delays, fan-in/fan-out) through both and requires bit-identical Results,
// so the rewrite is a pure speedup. TestSchedulerSpeedup floors it at 5x on
// a 5,000-task graph; it measures about 140x on a 2-vCPU Xeon. The graph lives in a pointer-free arena each
// Engine takes from a sync.Pool: task nodes, dependency edges as int32 ids,
// successor lists in one compressed-sparse-row array built by Run, per-label
// busy sums and two typed ready heaps per resource. The runnable heap holds
// int32 ids ordered by id; the waiting heap holds (ready, id) entries that
// carry their final ready time, so no heap comparison calls through a func
// value or loads a task node. Each task's service time, fixed + demand/Rate,
// is computed once when the pass begins, and labels are interned by a
// linear scan, since the engines' graphs use at most 7. A sim.Task is a value
// handle — the task's id — and schedule times are read back through
// Result.Finish. Run returns the arena to the pool before
// it returns, so building and scheduling a decode-step graph allocates
// little beyond the Result, and the garbage collector has almost nothing to
// scan. Simulations whose timelines nobody reads can call
// Engine.RecordTimeline(false) to skip the per-task TaskRecord. The same
// machinery carries the scheduler to million-task DAGs — the per-token
// granularity of a 1M-token decode timeline: BenchmarkScheduler1M builds
// and schedules a 1,048,576-task graph per op, where the O(n²) reference
// would take hours.
//
// The functional attention kernels follow the accelerator's true block
// dataflow: Blocked and TopKBlocks reduce each K/V block's local softmax
// statistics first (attention.Partial.AddBlock) and rescale the value
// accumulator at most once per block — the §5.4 streaming update unit —
// instead of once per token. Both are plain serial loops over query rows:
// their only callers are reflm's X-cache heads (at most 20 tokens, d = 16)
// and the Fig. 18(c) lossy-retrieval proxy (one query row, at most 2,048
// tokens), far too small for a worker grid to pay. Top-k retrieval
// selects through a bounded min-heap in O(n·log k), reproducing the old
// O(n·k) selection's output exactly (descending score, ascending index
// among ties, every k). All
// optimized paths stay within the existing FP32 tolerances of the Ref
// golden reference (and bit-exact where tests demand it, e.g. the X-cache
// regeneration path).
//
// tensor.Dot stripes its accumulation across eight independent lanes —
// modeling the accelerator's parallel MAC lane groups — with a documented
// canonical reduction order that is part of the numeric contract: lane L
// takes the products at indices i+L over full 8-element groups, the
// fewer-than-8 tail folds sequentially into lane 0 (so lengths < 8 are
// exactly the scalar sequential sum), and the lanes reduce as
// ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)). The scalar single-accumulator
// loop is the oracle in internal/tensor's tests; equivalence is property-
// and fuzz-tested (bitwise below one stripe, FP32 tolerance for finite
// data, NaN-for-NaN, bitwise determinism for all inputs including Inf).
// MatMul and MatVec are plain serial loops (MatMul a row-axpy loop).
// hilos-verify runs them through the reference LM (internal/reflm), at
// shapes far too small for tiling or row sharding to pay.
//
// The accelerator model (accel.AttentionWorkers) is a fused, copy-free
// block datapath on a process-wide worker pool (tensor.ParallelFor —
// long-lived goroutines, a shared atomic item cursor, the caller always
// participating and waiting only for items already claimed, so nesting
// can't deadlock). Its work items are block-aligned K/V chunks of accel's
// chunkSpan(headDim, chunkTokens) tokens: a positive chunkTokens pins the
// span, and accel.Attention passes 0, which sizes one chunk's K and V rows
// at FP32 to a fixed 1 MiB per-worker cache budget. The budget is a
// constant — deliberately never probed from the host CPU — because the
// chunk partition shapes the fixed reduction tree and is therefore part of
// the numeric contract: results are bit-identical across worker counts for
// any span, and across machines because every machine derives the same
// span. Each 128-token K or V block is rounded to FP16 straight into
// per-worker scratch (a sync.Pool lane) in one pass (fp16.RoundInto), so
// the caller's cache is never cloned whole and never written. One filled
// block serves all d_group query rows: phase 1 scores every row from the
// block's K rows, and phase 2 turns each row's scores into softmax weights
// and adds the weighted V rows into the row's chunk accumulator, in token
// order. The hardware's K-Buf → KT-Buf block transpose is modeled by the
// cycle model but not re-executed: transposition moves data without
// arithmetic, so reading K rows directly gives each q·k the same sequential
// FP32 chain over the head dimension and the same bits.
// The inner loops are register-blocked, and bit-identity survives because
// no FP32 operation is reordered: the query-key unit keeps 8 tokens' dot
// chains in flight (then 1 for the rest), each still one chain over the head
// dimension, and the score·value unit adds 4 tokens' V rows per load and
// store of an accumulator element, which still sees one add per token in
// token order; zero weights are dropped before the adds, as the serial loop
// skips them. Every product in the package is rounded to FP32 or FP64
// before its add, so no architecture fuses one (CI's arm64 scan).
// A steady-state call allocates only the scores, block statistics, chunk
// accumulators and output. SHA-256 digests of its outputs over a fixed shape
// table are checked in (internal/accel/testdata), and the original per-row
// loop lives in the tests as the one-chunk golden reference.
//
// FP16 storage emulation (fp16.RoundInto, RoundSlice, and so every
// Mat.RoundFP16) rounds magnitudes in [2^-14, 65520) — those that land on
// a normal half — directly on the float32 bits: round-to-nearest-even at
// bit 13. Subnormals, zero, overflow to ±Inf past 65504, Inf and NaN take the
// FromFloat32/ToFloat32 round trip. The fast path is exact, not
// approximate: a test sweeps every rounding-boundary pattern of the 13
// dropped bits under all 2^19 prefixes, FuzzRoundTrip asserts bitwise
// equality with the round trip, and
// `go test ./internal/fp16 -run TestRoundExhaustive -exhaustive` checks all
// 2^32 float32 patterns (about 30 s on 2 CPUs).
//
// Picking workers: accel.Attention runs runtime.GOMAXPROCS(0) workers,
// right for latency-sensitive single-call workloads; when many accelerator
// calls already run concurrently, accel.AttentionWorkers takes a per-call
// count (and chunk span), and lowering GOMAXPROCS caps the rest. Worker
// count never changes results — only latency versus CPU.
//
// Experiment tables evaluate their sweep points concurrently on the same
// kernel worker pool (tensor.ParallelFor) with index-ordered assembly, so
// regenerated tables are byte-identical to a sequential run. Independent
// points that hit the same simulation share it through internal/repcache, a
// process-wide memoized report cache keyed on the complete (testbed,
// request, options) input. The cluster dispatcher's per-fleet report memo is
// a repcache.Group — a private memo with the same per-key singleflight, so
// concurrent prewarm workers share one run per batch shape, and whose
// entries are dropped with the dispatcher instead of accumulating in the
// process cache.
//
// The cluster event loop's cost per event does not grow with trace length
// or backlog. Arrivals never enter the event heap: cluster.Run merges a
// cursor over the (arrival, ID)-sorted trace with the heap, taking the next
// arrival unless the heap holds a strictly earlier event (arrivals sort
// first at equal times), so the heap holds only the timers actually armed.
// Heap entries are small records of scalars and pointers to the queue,
// slot, batch or fault involved, sifted by a hand-written typed heap with
// no interface boxing. Run reads a trace already in (arrival, ID) order in
// place and never writes to it; any other trace is sorted into a copy.
// Admission queues are FIFOs of indices into that trace, consumed from the
// head by reslicing, so a queue's buffer holds no pointers. Before the loop
// starts, Run interns each request's (priority, class) queue key once — the
// only lookup a request pays — and admission reads the key's queue by index;
// a queue and its depth gauge still appear at the key's first admitted
// arrival. A start-deadline event carries its request's admission position,
// so checking whether the request still waits is one comparison against the
// queue's count of taken requests. Engine reports sit in one table per
// request shape, rows indexed by batch size and pipeline, in front of the
// repcache.Group (prewarm workers call the group directly). A queue looks
// its table up once, when it is created, and a closed batch once per
// placement, so planning a batch hashes nothing and, once its reports exist,
// allocates nothing (internal/cluster TestPlanDoesNotAllocate). Summarizing
// is linear in requests: the delay percentiles come from in-place
// nearest-rank selection (stats.Select: p99, then p95 and p50 each inside
// the previous one's left part, sorting a range only after 2·log₂n partition
// rounds fail to narrow it), and per-priority delays are a stable partition
// of the sample, copied only when more than one priority completed work.
// Continuous dispatch plans only when a pipeline is idle. Most events of an
// overloaded continuous replay find every pipeline busy or out of service,
// and then an idle-only plan can only fail a batch that no pipeline but a
// worn-out one fits. Each report table keeps, per batch size, the set of
// pipelines that fit, so the event checks the ripe queues against that set
// minus the worn-out pipelines and returns without sorting or planning them
// unless such a batch waits.
// Summaries are bit-identical to the earlier container/heap loop's, pinned
// by the SHA-256 table in internal/cluster/testdata/summary_digests.txt. On
// a 2-vCPU Xeon the bench module's 100k-request close-at-admission replay
// (replay-offline) takes about 21 ms of CPU (42 ms when the Summary sorted
// its delays and every arrival hashed its queue key) and its 20k-request
// continuous replay (replay-online) about 13 ms (18 ms when every event
// planned every ripe queue), allocating about 4.3 MB.
//
// The bench module (bench/, declared by BENCHMARK.json) is the performance
// ledger: it times whole workloads — the figures, three cluster replays and
// one accelerator decode step — on the host it runs on, checks every op
// against golden digests, and compares a change with its parent commit on
// the same host. Ratios between two code paths in one process are plain
// tests next to the code they time, each timing its two sides alternately
// (skipped under -race, which distorts them):
//
//   - internal/sim TestSchedulerSpeedup: Run at least 5x faster than the
//     O(n²) reference scheduler on a 5,000-task graph;
//   - internal/tensor TestDotSpeedup: the striped Dot at least 1.3x over
//     the scalar loop;
//   - TestTelemetryOverhead: the cluster loop with telemetry on at most 2x
//     its cost with telemetry off;
//   - TestAcceleratorParallelSpeedup: the accelerator datapath with 4
//     workers at least 1.5x over one. Below GOMAXPROCS 4 no such speedup is
//     measurable, and it skips.
//
// # Observability
//
// The telemetry layer (internal/telemetry, re-exported here) is
// zero-dependency and strictly passive: counters, gauges, fixed-bucket
// histograms in a MetricsRegistry, plus an EventStream that fans
// simulated-clock events out to bounded subscribers. Three contracts hold
// everywhere telemetry touches the simulators:
//
//   - Determinism: every timestamp is simulated-clock seconds, and metrics
//     never feed back into scheduling — a run with telemetry attached
//     produces a bit-identical Summary to a run without
//     (FuzzClusterTelemetryParity pins this on a checked-in corpus).
//   - Non-blocking: Publish never waits on a subscriber. A laggard's
//     events are dropped and counted (Subscriber.Dropped, StreamStats),
//     never buffered unboundedly, never backpressured into the hot loop.
//   - Zero disabled cost: a nil registry, stream, or sink is a no-op on
//     every method, so uninstrumented runs pay one nil check per event.
//     BenchmarkClusterTelemetryOff/On measure the cluster loop both ways,
//     and TestTelemetryOverhead caps the enabled overhead ratio at 2x.
//
// Metric names are dot-separated subsystem prefixes. The cluster scheduler
// (WithClusterTelemetry) emits cluster.arrivals, cluster.rejections,
// cluster.dispatched_batches/_jobs, cluster.preempted_batches/_jobs,
// cluster.completed_jobs, cluster.failed_batches/_jobs,
// cluster.deadline_misses, the robustness counters
// (cluster.faults_injected, cluster.repairs, cluster.retried_batches/_jobs,
// cluster.quarantines, cluster.failed_over_batches/_jobs,
// cluster.degraded_batches/_jobs), the cluster.delay_sec histogram,
// cluster.queue_depth.p<prio>.<class> gauges, cluster.makespan_sec,
// cluster.total_write_bytes, and per-pipeline
// cluster.pipeline.<name>.{busy_sec, utilization, write_bytes, wear_pct,
// write_pressure_bps, worn_out} gauges. The discrete-event engines
// (EnableSimTelemetry) emit sim.tasks_scheduled and sim.resource_busy_sec;
// the report cache (EnableCacheMetrics) emits repcache.hits,
// repcache.misses and repcache.coalesced. Event kinds on the stream are
// arrival, reject, dispatch, preempt, fail, fault, repair, retry,
// quarantine, failover, degrade, task and resource_busy.
//
// Counters and live queue-depth gauges update as the event loop runs;
// schedule-dependent metrics (completions, deadline misses, the delay
// histogram, per-pipeline gauges) are finalized from the settled Summary,
// so a snapshot taken after the run always agrees with it exactly.
//
// cmd/hilos-cluster serves the layer over HTTP: -metrics-addr exposes
// GET /metrics (registry snapshot plus stream accounting as JSON) and
// GET /events (newline-delimited JSON event stream; ?max=N, ?buf=N), and
// -trace-out writes the last run's batch schedule as Chrome trace-event
// JSON for chrome://tracing or Perfetto (WriteClusterTrace; per-DAG
// timelines via WriteChrome in internal/trace). -replay-speed slaves the
// simulated clock to the wall clock at a multiple — the pacing hook is the
// one sanctioned wall-clock boundary, it lives in cmd (not in any
// simulation package) behind a //lint:allow simdeterminism annotation, and
// it only delays event processing: the schedule is bit-identical at any
// speed.
//
// # Invariants
//
// Three conventions hold everywhere in this repository, and the
// cmd/hilos-lint analyzer suite (internal/lint) enforces them in CI:
//
//   - Determinism (simdeterminism): identical inputs produce bit-identical
//     tables. The simulation and kernel packages (internal/sim,
//     internal/cluster, internal/faults, internal/experiments,
//     internal/attention, internal/tensor, internal/accel) never read
//     time.Now, the process environment, or an unseeded entropy source —
//     randomness comes from explicitly seeded rand.New(rand.NewSource(seed))
//     streams — and Go's randomized map iteration order never reaches an
//     output: code collects keys, sorts, then walks. Appending inside a map
//     range is fine exactly when the slice is sorted afterwards in the same
//     function. Goroutine completion order never reaches an output either:
//     the analyzer flags appends and float accumulation driven by channel
//     receives (`for v := range ch { out = append(out, v) }`, `sum += <-ch`),
//     which record whichever worker finished first. The sanctioned shapes
//     are index-owned writes (out[i] = v), fixed-shape tree reduction over
//     an index-ordered slice, and collect-then-sort.
//   - Numerics (floataccum): long float reductions in the kernel packages
//     (internal/attention, internal/tensor, internal/fp16, internal/accel)
//     accumulate in float64 — attention.Partial/Stats — and convert once at
//     the boundary.
//     float32 `+=` in a loop is reserved for code that deliberately models
//     the accelerator's FP32 MAC datapath, and says so.
//   - Concurrency (guardedby, heapsafe): shared state annotated
//     `// guarded by <mu>` (repcache's cache and entries, the telemetry
//     registry's metrics) is only touched with the named mutex held —
//     RLock suffices for reads, never for writes. Heap-ordering fields of
//     internal/sim's min-heaps (a waiting entry's ready time and id, a
//     resource queue's free time and heaps, the candidate keys) and of
//     internal/cluster's event heap (event.at, kind, q, seq) change only on
//     the heap's own Fix/Push/Pop paths, or with a re-heapify call following
//     in the same function. Code with no mutex at all — the experiment
//     sweeps and report prewarm on tensor.ParallelFor, the cluster event
//     loop — stays race-free structurally: single-goroutine loops and
//     index-disjoint writes.
//
// Run the suite with `go run ./cmd/hilos-lint ./...` (flags: -json for
// machine-readable output, -rules to select analyzers, -list to enumerate
// them). A deliberate exception is annotated in source with
// `//lint:allow <rule> <reason>` — on the offending line, in a declaration's
// doc comment, or in the package doc — and the reason is part of the
// contract: it documents why the invariant bends there. Fixtures under
// internal/lint/testdata/src pin each analyzer's catch and no-false-positive
// behavior.
//
// See the examples directory for runnable walkthroughs and bench/README.md
// for how performance is measured.
package hilos
