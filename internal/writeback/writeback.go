// Package writeback models the delayed KV cache writeback of §4.3: newly
// generated KV entries are staged in host-memory buffers and spilled to
// storage in page-aligned chunks every SpillInterval decoding steps, keeping
// storage write latency off the critical path and avoiding sub-page write
// amplification. The simulator reads its write amplification in closed form
// (NaiveWAF, SteadyStateWAF); the tests check both against a step-by-step
// buffer manager.
package writeback

// Config describes one model/batch configuration's KV append streams.
type Config struct {
	SpillInterval int   // c: decoding steps between spills (paper default 16)
	Rows          int   // independent append streams: batch × KV heads × layers
	EntryBytes    int64 // bytes appended per row per step (d×2 per tensor ×2 for K+V)
	PageBytes     int64 // SSD NAND page size (4 KiB)
}

func roundUp(v, to int64) int64 { return (v + to - 1) / to * to }

// NaiveWAF returns the write amplification of the §4.3 naive approach that
// commits every per-step entry directly: each EntryBytes write occupies at
// least one page.
func (c Config) NaiveWAF() float64 {
	phys := roundUp(c.EntryBytes, c.PageBytes)
	return float64(phys) / float64(c.EntryBytes)
}

// SteadyStateWAF returns the write amplification when spilling every
// SpillInterval steps, without running a simulation.
func (c Config) SteadyStateWAF() float64 {
	chunk := int64(c.SpillInterval) * c.EntryBytes
	return float64(roundUp(chunk, c.PageBytes)) / float64(chunk)
}
