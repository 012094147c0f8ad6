// Package kvcache plans KV-cache and X-cache placement for HILOS: the
// row-wise (b×h×s×d) layout of §4.3, partitioning of (batch, KV-head) groups
// across NSP devices along the batch and head dimensions (§4.1), and
// capacity feasibility checks.
package kvcache

import (
	"fmt"

	"repro/internal/model"
)

// Placement describes where each (batch, KV-head) group's cache lives and
// how big everything is for a given batch and maximum sequence length.
type Placement struct {
	Model   model.Config
	Batch   int
	MaxSeq  int
	Devices int
	Alpha   float64 // fraction of groups kept as X-cache (GPU-recomputed)

	// Derived quantities.
	TotalGroups  int   // batch × KV heads
	XGroups      int   // groups handled via X-cache
	KVGroups     int   // groups handled by NSP attention
	KVBytesTotal int64 // storage for the KV portion
	XBytesTotal  int64 // storage for the X portion
	BytesPerDev  int64 // storage footprint on the busiest device
	GroupsPerDev int   // groups assigned to the busiest device
	RowBytes     int64 // contiguous bytes of one (seq, head) K row: s×d×2
}

// Plan computes a placement. It returns an error when the configuration is
// inconsistent; capacity checking against a device size is separate (Fits).
func Plan(m model.Config, batch, maxSeq, devices int, alpha float64) (Placement, error) {
	if err := m.Validate(); err != nil {
		return Placement{}, err
	}
	if batch <= 0 || maxSeq <= 0 || devices <= 0 {
		return Placement{}, fmt.Errorf("kvcache: non-positive batch/seq/devices")
	}
	if alpha < 0 || alpha > 1 {
		return Placement{}, fmt.Errorf("kvcache: alpha %v out of [0,1]", alpha)
	}
	p := Placement{
		Model: m, Batch: batch, MaxSeq: maxSeq, Devices: devices, Alpha: alpha,
		TotalGroups: batch * m.KVHeads,
	}
	p.XGroups = int(float64(float64(p.TotalGroups)*alpha) + 0.5)
	p.KVGroups = p.TotalGroups - p.XGroups

	perGroupKV := int64(maxSeq) * int64(m.Layers) * (2 * int64(m.HeadDim()) * model.BytesPerElem)
	// The X-cache stores the full hidden activation per token; it is shared
	// by all KV heads of a batch element, so account it per batch-share.
	perGroupX := int64(maxSeq) * int64(m.Layers) * int64(m.Hidden) * model.BytesPerElem / int64(m.KVHeads)

	p.KVBytesTotal = int64(p.KVGroups) * perGroupKV
	p.XBytesTotal = int64(p.XGroups) * perGroupX
	p.GroupsPerDev = ceilDiv(p.TotalGroups, devices)
	// Worst-case device holds GroupsPerDev of the larger per-group footprint.
	perGroupWorst := perGroupKV
	if perGroupX > perGroupWorst {
		perGroupWorst = perGroupX
	}
	p.BytesPerDev = int64(p.GroupsPerDev) * perGroupWorst
	p.RowBytes = int64(maxSeq) * int64(m.HeadDim()) * model.BytesPerElem
	return p, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// TotalBytes returns the combined storage footprint.
func (p Placement) TotalBytes() int64 { return p.KVBytesTotal + p.XBytesTotal }
