// Package repcache is a process-wide memo for simulation reports. Every
// engine in this repository is a pure function of (system, configuration,
// request) — the discrete-event substrate is fully deterministic — so
// identical simulation points across experiment tables, sweep axes and
// repeated benchmark iterations can share one run. Run keys on that
// complete comparable input. The cluster dispatcher does not use it: its
// engine labels are only meaningful within one fleet, so each cluster run
// keeps its reports in report tables of its own.
//
// Cached reports are shared: callers must treat them (including their
// Breakdown/ResourceBusy maps and Trace slice) as immutable, the same
// contract cluster assignments already follow.
package repcache

import (
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
)

// cacheMetrics counts memo outcomes: a miss computes, a hit returns a
// finished entry, a coalesced call piggybacks on a compute already in
// flight (singleflight sharing). Held behind an atomic pointer so the
// disabled path costs one load.
type cacheMetrics struct {
	hits      *telemetry.Counter
	misses    *telemetry.Counter
	coalesced *telemetry.Counter
}

var metrics atomic.Pointer[cacheMetrics]

// EnableMetrics wires the cache's hit/miss/singleflight-coalesced counters
// into reg ("repcache.hits", "repcache.misses", "repcache.coalesced"). A
// nil reg disables them again.
func EnableMetrics(reg *telemetry.Registry) {
	if reg == nil {
		metrics.Store(nil)
		return
	}
	metrics.Store(&cacheMetrics{
		hits:      reg.Counter("repcache.hits"),
		misses:    reg.Counter("repcache.misses"),
		coalesced: reg.Counter("repcache.coalesced"),
	})
}

// runKey identifies one simulation: a system of the engine table, its
// normalized configuration and the request.
type runKey struct {
	sys engine.System
	cfg engine.Config
	req pipeline.Request
}

// entry is a singleflight slot: the first caller computes under the entry
// lock, concurrent callers for the same key block on it and share the
// result. done is set only after compute returns, so a panicking compute
// (e.g. a malformed task graph) propagates without poisoning the slot —
// the next caller simply retries.
type entry struct {
	mu   sync.Mutex
	done bool            // guarded by mu
	rep  pipeline.Report // guarded by mu
	err  error           // guarded by mu
	// ready mirrors done for lock-free metric classification: a creator
	// that finds ready already set counts a hit instead of a coalesced
	// wait. Set only after compute returns (like done), so a panicking
	// compute leaves it clear.
	ready atomic.Bool
}

// table is a singleflight memo keyed by simulation point. The zero value is
// empty and ready to use.
type table struct {
	mu      sync.Mutex
	entries map[runKey]*entry // guarded by mu
}

// cache is the process-wide memo behind Run.
var cache table

func (t *table) do(key runKey, compute func() (pipeline.Report, error)) (pipeline.Report, error) {
	t.mu.Lock()
	e, ok := t.entries[key]
	if !ok {
		if t.entries == nil {
			t.entries = map[runKey]*entry{}
		}
		e = &entry{}
		t.entries[key] = e
	}
	t.mu.Unlock()
	if m := metrics.Load(); m != nil {
		switch {
		case !ok:
			m.misses.Inc()
		case e.ready.Load():
			m.hits.Inc()
		default:
			// The entry exists but its compute has not finished: this call
			// will block on the entry lock and share the in-flight result.
			// (A compute that panicked and is being retried miscounts as
			// coalesced — acceptable for an approximate counter.)
			m.coalesced.Inc()
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.done {
		e.rep, e.err = compute()
		e.done = true
		e.ready.Store(true)
	}
	return e.rep, e.err
}

// Run is a memoized engine.Engine.Run: it simulates req on the system's
// engine for cfg, building the engine with engine.New on a miss. cfg is
// normalized and validated before it keys the memo, so an invalid
// configuration returns Validate's error and stores nothing (a NaN field,
// which never equals itself, would otherwise add an entry per lookup). An
// unknown system returns New's error, which is memoized like a report.
func Run(sys engine.System, cfg engine.Config, req pipeline.Request) (pipeline.Report, error) {
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return pipeline.Report{}, err
	}
	return cache.do(runKey{sys: sys, cfg: cfg, req: req}, func() (pipeline.Report, error) {
		eng, err := engine.New(sys, cfg)
		if err != nil {
			return pipeline.Report{}, err
		}
		return eng.Run(req), nil
	})
}

// Reset drops every cached report. It exists for tests that must observe
// cold-cache behavior; production callers never need it.
func Reset() {
	cache.mu.Lock()
	defer cache.mu.Unlock()
	cache.entries = nil
}
