package cluster

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

// Telemetry is the cluster loop's instrumentation sink: a thin wrapper
// binding the generic telemetry.Registry/Stream to the scheduler's event
// vocabulary. All timestamps are simulated-clock seconds and nothing here
// feeds back into scheduling, so a telemetry-enabled run produces a
// bit-identical Summary to a disabled one. A nil *Telemetry is fully
// disabled: every method is a nil-receiver no-op costing one pointer check
// in the hot loop.
//
// Two kinds of metrics coexist:
//
//   - Live, monotone counters and events emitted as the loop executes
//     (arrivals, rejections, dispatches, preemptions, queue depths, the
//     simulated clock). Dispatch counts include batches that are later
//     evicted and re-dispatched — they narrate the schedule as it unfolds.
//   - End-state metrics finalized from the Summary (completed jobs,
//     deadline misses, failures, delay histogram, per-pipeline
//     utilization/wear): preemption can shift an unstarted slot's start
//     time after its dispatch, so these are only exact once the schedule
//     settles. Finalized metrics match the Summary's fields exactly.
type Telemetry struct {
	reg    *telemetry.Registry
	stream *telemetry.Stream

	arrivals   *telemetry.Counter
	rejections *telemetry.Counter
	faultsC    *telemetry.Counter
	repairs    *telemetry.Counter
	quarC      *telemetry.Counter
	clock      *telemetry.Gauge
	// batchC holds the batch and job counters of each batch event kind.
	batchC map[string][2]*telemetry.Counter
}

// batchKinds maps each batch event kind to its counters' name stem.
var batchKinds = map[string]string{
	"dispatch": "dispatched", "preempt": "preempted", "retry": "retried",
	"failover": "failed_over", "degrade": "degraded",
}

// NewTelemetry binds a cluster telemetry sink to a registry and/or an event
// stream; either may be nil. Returns nil when both are, which is the fully
// disabled configuration.
func NewTelemetry(reg *telemetry.Registry, stream *telemetry.Stream) *Telemetry {
	if reg == nil && stream == nil {
		return nil
	}
	t := &Telemetry{
		reg:        reg,
		stream:     stream,
		arrivals:   reg.Counter("cluster.arrivals"),
		rejections: reg.Counter("cluster.rejections"),
		faultsC:    reg.Counter("cluster.faults_injected"),
		repairs:    reg.Counter("cluster.repairs"),
		quarC:      reg.Counter("cluster.quarantines"),
		clock:      reg.Gauge("cluster.sim_clock_sec"),
		batchC:     map[string][2]*telemetry.Counter{},
	}
	for kind, stem := range batchKinds {
		t.batchC[kind] = [2]*telemetry.Counter{reg.Counter("cluster." + stem + "_batches"), reg.Counter("cluster." + stem + "_jobs")}
	}
	return t
}

// tick records the simulated clock advancing to now.
func (t *Telemetry) tick(now float64) {
	if t == nil {
		return
	}
	t.clock.Set(now)
}

// onArrival records one admitted request.
func (t *Telemetry) onArrival(r Request) {
	if t == nil {
		return
	}
	t.arrivals.Inc()
	t.stream.Publish(telemetry.Event{
		TSec: r.ArrivalSec, Kind: "arrival", Subsystem: "cluster",
		Class: r.Class.Name, Priority: r.Priority, Jobs: 1,
	})
}

// onReject records one backlog-cap rejection.
func (t *Telemetry) onReject(r Request) {
	if t == nil {
		return
	}
	t.rejections.Inc()
	t.stream.Publish(telemetry.Event{
		TSec: r.ArrivalSec, Kind: "reject", Subsystem: "cluster",
		Class: r.Class.Name, Priority: r.Priority, Jobs: 1,
	})
}

// queueGauge returns the depth gauge of queue k, which the queue keeps and
// sets after each change; nil without telemetry or a registry.
func (t *Telemetry) queueGauge(k queueKey) *telemetry.Gauge {
	if t == nil {
		return nil
	}
	return t.reg.Gauge(fmt.Sprintf("cluster.queue_depth.p%d.%s", k.priority, k.class.Name))
}

// onBatch counts one batch event on a pipeline and publishes it. kind is one
// of batchKinds: a dispatch (a slot committed to a pipeline, which
// preemption may later evict — dispatch counters narrate scheduling
// decisions, not completions), a preemption eviction, a retry after
// backoff, a failover off a failing pipeline, or degraded service on a
// lossy tier. detail, when non-nil, renders the event's detail; it runs
// only past the nil check, so nothing is formatted with telemetry off.
func (t *Telemetry) onBatch(kind string, now float64, b *BatchJob, pipeName string, value float64, detail func() string) {
	if t == nil {
		return
	}
	c := t.batchC[kind]
	c[0].Inc()
	c[1].Add(int64(len(b.JobIDs)))
	e := telemetry.Event{
		TSec: now, Kind: kind, Subsystem: "cluster",
		Pipeline: pipeName, Class: b.Class.Name, Priority: b.Priority,
		Jobs: len(b.JobIDs), Value: value,
	}
	if detail != nil {
		e.Detail = detail()
	}
	t.stream.Publish(e)
}

// onFail records a batch no pipeline could place.
func (t *Telemetry) onFail(now float64, b BatchJob, reason string) {
	if t == nil {
		return
	}
	t.stream.Publish(telemetry.Event{
		TSec: now, Kind: "fail", Subsystem: "cluster",
		Class: b.Class.Name, Priority: b.Priority, Jobs: len(b.JobIDs),
		Detail: reason,
	})
}

// onFault records one injected fault firing on a pipeline.
func (t *Telemetry) onFault(now float64, pipeName string, fe faults.Event) {
	if t == nil {
		return
	}
	t.faultsC.Inc()
	t.stream.Publish(telemetry.Event{
		TSec: now, Kind: "fault", Subsystem: "cluster",
		Pipeline: pipeName, Value: fe.DurationSec,
		Detail: string(fe.Kind),
	})
}

// onRepair records a pipeline's re-admission after downtime or quarantine.
func (t *Telemetry) onRepair(now float64, pipeName string) {
	if t == nil {
		return
	}
	t.repairs.Inc()
	t.stream.Publish(telemetry.Event{
		TSec: now, Kind: "repair", Subsystem: "cluster", Pipeline: pipeName,
	})
}

// onQuarantine records a circuit-breaker trip.
func (t *Telemetry) onQuarantine(now float64, pipeName string, durSec float64) {
	if t == nil {
		return
	}
	t.quarC.Inc()
	t.stream.Publish(telemetry.Event{
		TSec: now, Kind: "quarantine", Subsystem: "cluster",
		Pipeline: pipeName, Value: durSec,
	})
}

// delayBounds buckets queueing delay in seconds, log-spaced from sub-second
// to hours.
var delayBounds = []float64{0.1, 0.5, 1, 5, 10, 30, 60, 120, 300, 600, 1800, 3600}

// finalize publishes the settled end-state of a run: counters and gauges
// whose exact values depend on the final schedule (preemption shifts
// unstarted slot starts after dispatch). Every value is copied from the
// Summary, and the delay histogram observes summarize's per-completed-job
// delays, so metrics and Summary can never disagree.
func (t *Telemetry) finalize(s Summary, delays []float64) {
	if t == nil {
		return
	}
	t.reg.Counter("cluster.completed_jobs").Add(int64(s.Completed))
	t.reg.Counter("cluster.failed_batches").Add(int64(s.FailedBatches))
	t.reg.Counter("cluster.failed_jobs").Add(int64(s.FailedJobs))
	t.reg.Counter("cluster.deadline_misses").Add(int64(s.DeadlineMisses))
	t.reg.Gauge("cluster.makespan_sec").Set(s.MakespanSec)
	t.reg.Gauge("cluster.total_write_bytes").Add(s.TotalWriteBytes)

	h := t.reg.Histogram("cluster.delay_sec", delayBounds)
	for _, d := range delays {
		h.Observe(d)
	}

	for _, ps := range s.Pipelines {
		prefix := "cluster.pipeline." + ps.Name
		t.reg.Gauge(prefix + ".busy_sec").Set(ps.BusySec)
		t.reg.Gauge(prefix + ".utilization").Set(ps.Utilization)
		t.reg.Gauge(prefix + ".write_bytes").Set(ps.WriteBytes)
		t.reg.Gauge(prefix + ".wear_pct").Set(ps.WearPct)
		t.reg.Gauge(prefix + ".write_pressure_bps").Set(ps.WritePressureBps)
		if ps.WearOut {
			t.reg.Gauge(prefix + ".worn_out").Set(1)
		}
	}
}
