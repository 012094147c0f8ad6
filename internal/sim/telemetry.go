package sim

import (
	"sync/atomic"

	"repro/internal/telemetry"
)

// Telemetry is the sim engine's instrumentation sink. When attached, every
// scheduled task increments Tasks and (if Stream is set) publishes a "task"
// event stamped with the task's simulated finish time, and each resource's
// final busy time accumulates into a per-resource gauge and a
// "resource_busy" event at end of run. Emission order is the deterministic
// schedule order, timestamps are simulated seconds, and nothing feeds back
// into scheduling — Results are bit-identical with telemetry on or off.
// Every event carries the subsystem label "sim".
type Telemetry struct {
	// Tasks counts scheduled tasks. Nil disables the counter.
	Tasks *telemetry.Counter
	// BusySec accumulates resource busy seconds across runs. Nil disables.
	BusySec *telemetry.Gauge
	// Stream receives per-task and per-resource events. Nil disables.
	Stream *telemetry.Stream
}

// defaultTel is the process-wide sink every engine's Run reports to, read
// once per Run. Construction sites (core, baselines, repcache) are spread
// across packages, so a process-wide default is how cmd-level tooling turns
// sim telemetry on without threading a handle through every engine
// constructor.
var defaultTel atomic.Pointer[Telemetry]

// EnableTelemetry installs the process-wide default sink built from reg
// and/or stream (either may be nil; both nil uninstalls). It applies to
// engines whose Run starts after the call.
func EnableTelemetry(reg *telemetry.Registry, stream *telemetry.Stream) {
	if reg == nil && stream == nil {
		defaultTel.Store(nil)
		return
	}
	defaultTel.Store(&Telemetry{
		Tasks:   reg.Counter("sim.tasks_scheduled"),
		BusySec: reg.Gauge("sim.resource_busy_sec"),
		Stream:  stream,
	})
}

// observeTask records one scheduled task.
func (tel *Telemetry) observeTask(label, resName string, start, finish Time) {
	tel.Tasks.Inc()
	if tel.Stream == nil {
		return
	}
	tel.Stream.Publish(telemetry.Event{
		TSec: float64(finish), Kind: "task", Subsystem: "sim",
		Resource: resName, Value: float64(finish - start), Detail: label,
	})
}

// observeRun records the per-resource busy totals of a finished run, in
// resource registration order.
func (tel *Telemetry) observeRun(e *Engine, makespan Time) {
	for _, r := range e.resources {
		tel.BusySec.Add(float64(r.busy))
		if tel.Stream != nil {
			tel.Stream.Publish(telemetry.Event{
				TSec: float64(makespan), Kind: "resource_busy", Subsystem: "sim",
				Resource: r.Name, Value: float64(r.busy),
			})
		}
	}
}
