package hilos

import (
	"io"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/repcache"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Telemetry-facing re-exports. The observability layer is zero-dependency
// and strictly passive: metrics and events never feed back into
// scheduling, timestamps are simulated-clock seconds, and a nil sink
// anywhere is a no-op — see the Observability section of the package
// documentation for the determinism contract and metric names.
type (
	// MetricsRegistry holds named counters, gauges and fixed-bucket
	// histograms; Snapshot() serializes them deterministically.
	MetricsRegistry = telemetry.Registry
	// MetricsSnapshot is a point-in-time copy of every registered metric.
	MetricsSnapshot = telemetry.Snapshot
	// EventStream fans simulated-clock events out to bounded subscribers
	// without ever blocking the publisher; overflow is counted, not
	// buffered.
	EventStream = telemetry.Stream
	// TelemetryEvent is one simulated-clock observation on an EventStream.
	TelemetryEvent = telemetry.Event
	// TelemetrySubscriber receives events from an EventStream.
	TelemetrySubscriber = telemetry.Subscriber
	// ClusterTelemetry is the cluster scheduler's instrumentation sink;
	// pass it via WithClusterTelemetry.
	ClusterTelemetry = cluster.Telemetry
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// NewEventStream returns an event stream with no subscribers.
func NewEventStream() *EventStream { return telemetry.NewStream() }

// NewClusterTelemetry binds a cluster instrumentation sink to a registry
// and/or event stream; either may be nil, both nil returns a disabled
// (nil) sink.
func NewClusterTelemetry(reg *MetricsRegistry, stream *EventStream) *ClusterTelemetry {
	return cluster.NewTelemetry(reg, stream)
}

// EnableSimTelemetry installs a process-wide sink for the discrete-event
// engines underneath every system simulation: scheduled-task counts,
// resource busy seconds, and (with a stream) per-task events. Both nil
// uninstalls. Applies to simulations started after the call.
func EnableSimTelemetry(reg *MetricsRegistry, stream *EventStream) {
	sim.EnableTelemetry(reg, stream)
}

// EnableCacheMetrics wires the process-wide report cache's hit, miss and
// singleflight-coalesced counters into reg; nil disables them again. The
// cache serves the experiment tables; cluster runs keep their reports in
// tables of their own and do not count here.
func EnableCacheMetrics(reg *MetricsRegistry) { repcache.EnableMetrics(reg) }

// TelemetryHandler serves live stats over HTTP: GET /metrics returns the
// registry snapshot plus stream accounting as JSON, GET /events streams
// newline-delimited JSON events as they are published (bounded per-client
// buffers; laggards drop events rather than slow the publisher).
func TelemetryHandler(reg *MetricsRegistry, stream *EventStream) http.Handler {
	return telemetry.Handler(reg, stream)
}

// WriteClusterTrace serializes a cluster run's batch schedule as Chrome
// trace-event JSON — one lane per pipeline, one span per placed batch —
// loadable at chrome://tracing or in Perfetto.
func WriteClusterTrace(w io.Writer, s ClusterSummary, label string) error {
	return trace.WriteClusterChrome(w, s, label)
}
