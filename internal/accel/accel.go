// Package accel models the HILOS near-storage attention accelerator (§4.4):
//
//   - a functional model of the four pipeline units of Figure 7 — the
//     query-key product unit with online 128×128 block transpose, the
//     softmax statistics aggregation unit, the softmax normalization unit,
//     and the score–value product unit — operating on FP16-stored data with
//     FP32 accumulation;
//   - a cycle-accurate-in-expectation performance model of the pipelined
//     dataflow (block steady state, DRAM roofline, exponential-unit limits);
//   - the FPGA resource/power model reproducing Table 3; and
//   - the §7.1 ISP ASIC projection.
package accel

import (
	"fmt"
	"runtime"

	"repro/internal/tensor"
)

// BlockTokens is the temporal-architecture block size: the accelerator
// processes attention in blocks of 128 tokens (§4.4).
const BlockTokens = 128

// Config describes one accelerator instance.
type Config struct {
	DGroup  int // query heads sharing one KV cache (1 for MHA)
	HeadDim int // per-head dimension d (≤ 128)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.DGroup < 1 {
		return fmt.Errorf("accel: d_group must be ≥ 1, got %d", c.DGroup)
	}
	if c.HeadDim < 1 || c.HeadDim > 128 {
		return fmt.Errorf("accel: head dim must be in [1,128], got %d", c.HeadDim)
	}
	return nil
}

// Accelerator is the functional model. Its Attention method is bit-faithful
// to the hardware dataflow: K/V consumed in 128-token blocks, each block
// quantized to FP16 in per-worker scratch (the cache is never cloned whole)
// and traversed once for all d_group query rows, two-pass softmax with
// streaming statistics, and host-precomputed partial scores merged for the
// delayed-writeback path. The K-Buf → KT-Buf block transpose is modeled by
// the cycle model but not re-executed: transposition only moves data, so
// reading K rows directly yields the same bits.
type Accelerator struct {
	cfg Config
}

// New returns a functional accelerator model.
func New(cfg Config) (*Accelerator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Accelerator{cfg: cfg}, nil
}

// PadSequence zero-pads s up to a multiple of 32 to facilitate AXI burst
// transactions (§5.4 "input sequences are zero-padded to multiples of 32").
func PadSequence(s int) int {
	const axiPad = 32
	return (s + axiPad - 1) / axiPad * axiPad
}

// Attention computes exact attention for dGroup query rows sharing the K/V
// cache, using the hardware dataflow. mask marks valid cache positions
// (padding from PadSequence is masked automatically). The optional
// hostScores/hostV carry the delayed-writeback partial inputs: scaled QKᵀ
// scalars precomputed by the host CPU over buffered keys, and the buffered
// value rows (Fig. 6b); pass empty mats when unused.
//
// Inputs are quantized through FP16 (storage precision) block by block in
// scratch and are never modified; accumulation is FP32, matching §5.4. The
// per-block qk/softmax/sv stages shard across the kernel worker pool (see
// AttentionWorkers); results are bit-identical for every worker count.
func (a *Accelerator) Attention(q, k, v tensor.Mat, mask []bool, hostScores tensor.Mat, hostV tensor.Mat) (tensor.Mat, error) {
	return a.AttentionWorkers(q, k, v, mask, hostScores, hostV, runtime.GOMAXPROCS(0), 0)
}

// validateAttention checks the shared shape contract of the attention entry
// points.
func (a *Accelerator) validateAttention(q, k, v, hostScores, hostV tensor.Mat) error {
	if q.Rows != a.cfg.DGroup {
		return fmt.Errorf("accel: got %d query rows, configured d_group %d", q.Rows, a.cfg.DGroup)
	}
	if q.Cols != a.cfg.HeadDim || k.Cols != a.cfg.HeadDim {
		return fmt.Errorf("accel: head dim mismatch: q %d, k %d, cfg %d", q.Cols, k.Cols, a.cfg.HeadDim)
	}
	if k.Rows != v.Rows {
		return fmt.Errorf("accel: k rows %d != v rows %d", k.Rows, v.Rows)
	}
	if hostScores.Rows > 0 && (hostScores.Rows != q.Rows || hostScores.Cols != hostV.Rows) {
		return fmt.Errorf("accel: host partial shape mismatch")
	}
	return nil
}
