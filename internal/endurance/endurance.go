// Package endurance implements the Fig. 16(b) SSD-endurance analysis: the
// KV cache is write-once read-many, so lifetime is governed by total write
// volume. The model counts prefill writes plus decode-time append writes
// (with the write amplification of each system's commit strategy) and
// divides the array's PBW budget by the per-request volume.
package endurance

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/workload"
)

// DefaultPBW is the per-device endurance rating used when a caller has no
// measured value: 7.008 petabytes written per 3.84 TB SmartSSD with 3-month
// retention relaxation, §6.6.
const DefaultPBW = 7.008

// PBWBytes converts the paper's petabytes-written rating to bytes
// (7.008 PBW per 3.84 TB SmartSSD with 3-month retention, §6.6).
func PBWBytes(pbw float64) float64 { return pbw * 1e15 }

// WriteModel describes how a system commits KV state to storage.
type WriteModel struct {
	Name string
	// XAlpha is the X-cache fraction; the α portion stores X (half the KV
	// bytes for MHA) instead of K/V, cutting write volume by ≈ α/2 (§6.6).
	XAlpha float64
	// DecodeWAF is the write amplification of decode-time appends:
	// FLEX commits small entries through the SSD cache (partial
	// coalescing), HILOS spills page-aligned chunks.
	DecodeWAF float64
	// SpillMetaBytes models FTL/log metadata per spill per row; smaller
	// spill intervals pay it more often (the §6.6 c=16→32 gain).
	SpillMetaBytes float64
	SpillInterval  int
}

// FlexWrites is the FLEX(16 PCIe 3.0 SSDs) baseline: every token's K and V
// entries are committed eagerly; the SSD's internal cache coalesces some of
// the sub-page traffic (effective WAF 1.5).
func FlexWrites() WriteModel {
	return WriteModel{Name: "FLEX(16 PCIe 3.0 SSDs)", DecodeWAF: 1.5}
}

// HILOSWrites is the delayed-writeback model with spill interval c and the
// §4.2-chosen X-cache ratio.
func HILOSWrites(alpha float64, c int) WriteModel {
	return WriteModel{
		Name:           fmt.Sprintf("HILOS(c=%d)", c),
		XAlpha:         alpha,
		DecodeWAF:      1,
		SpillMetaBytes: 1024,
		SpillInterval:  c,
	}
}

// BytesPerRequest returns the physical storage writes for one request of
// the given class on the given model.
func (w WriteModel) BytesPerRequest(m model.Config, class workload.Class) (float64, error) {
	if class.Input <= 0 || class.Output <= 0 {
		return 0, fmt.Errorf("endurance: invalid request class %+v", class)
	}
	perTokenKV := float64(m.KVBytesPerTokenLayer()) * float64(m.Layers)
	perTokenX := float64(m.XBytesPerTokenLayer()) * float64(m.Layers)
	// Storage mix: (1−α) of the cache as K/V, α as X.
	perToken := float64((1-w.XAlpha)*perTokenKV) + float64(w.XAlpha*perTokenX)

	prefill := float64(float64(class.Input) * perToken) // row-wise, page-aligned
	decode := float64(float64(class.Output) * perToken * w.DecodeWAF)
	if w.SpillInterval > 0 {
		// Metadata per spill per (KV-head × layer) row group, amortized
		// over the interval.
		rows := float64(m.KVHeads * m.Layers)
		decode += float64(float64(class.Output) / float64(w.SpillInterval) * rows * w.SpillMetaBytes)
	}
	return prefill + decode, nil
}

// ServiceableRequests returns the number of requests the array can absorb
// before exhausting its endurance budget (Fig. 16b's y-axis, in requests).
func ServiceableRequests(m model.Config, class workload.Class, w WriteModel, devices int, pbw float64) (float64, error) {
	per, err := w.BytesPerRequest(m, class)
	if err != nil {
		return 0, err
	}
	if per <= 0 {
		return 0, fmt.Errorf("endurance: zero write volume")
	}
	return float64(devices) * PBWBytes(pbw) / per, nil
}

// Budget tracks cumulative flash writes against an endurance limit — the
// live counterpart of ServiceableRequests, consumed by the cluster's
// wear-out fault path. The write that reaches the limit exhausts the
// budget; a budget may be shared (several pipelines Add-ing into one
// array-wide allowance). A nil *Budget is unlimited: Add never exhausts
// it, so the no-wear configuration costs one pointer check.
type Budget struct {
	limit     float64
	used      float64
	exhausted bool
}

// NewBudget returns a budget of the given byte limit (must be > 0).
func NewBudget(limitBytes float64) *Budget {
	return &Budget{limit: limitBytes}
}

// Add charges bytes against the budget and reports whether this call
// crossed it: true exactly once, on the write that makes cumulative usage
// reach or exceed the limit (writes landing exactly on the boundary
// exhaust it — the budget is an allowance, not a strict bound). Later
// calls keep accumulating but return false; poll Exhausted for state.
func (b *Budget) Add(bytes float64) bool {
	if b == nil || b.limit <= 0 {
		return false
	}
	b.used += bytes
	if !b.exhausted && b.used >= b.limit {
		b.exhausted = true
		return true
	}
	return false
}
