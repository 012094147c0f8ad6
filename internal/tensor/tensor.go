// Package tensor provides the minimal dense linear algebra used by the
// functional attention substrate: row-major float32 matrices, GEMM/GEMV,
// and FP16 storage quantization.
//
// All accumulation is done in float32 (emulating the accelerator's FP32
// accumulators); storage quantization to FP16 is explicit via RoundFP16,
// mirroring the paper's "native FP16 storage, FP32 intermediate" policy.
package tensor

import (
	"fmt"
	"math/rand"

	"repro/internal/fp16"
)

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zero matrix with the given shape.
func New(rows, cols int) Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return Mat{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (length rows*cols) as a matrix without copying.
func FromSlice(rows, cols int, data []float32) Mat {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return Mat{Rows: rows, Cols: cols, Data: data}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m Mat) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m Mat) Clone() Mat {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// SliceRows returns the sub-matrix of rows [lo, hi) sharing storage with m.
func (m Mat) SliceRows(lo, hi int) Mat {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: row slice [%d,%d) out of range %d", lo, hi, m.Rows))
	}
	return Mat{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// MatMul returns a·b. Panics on shape mismatch. Each output row accumulates
// a's row-scaled rows of b in k order (a serial row-axpy loop), so the
// result is a pure function of the operands.
//
//lint:allow floataccum GEMM deliberately emulates the accelerator's FP32 accumulators
func MatMul(a, b Mat) Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < a.Cols; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range orow {
				orow[j] += float32(av * brow[j])
			}
		}
	}
	return out
}

// MatVec returns m·x as a vector of length m.Rows.
func MatVec(m Mat, x []float32) []float32 {
	if m.Cols != len(x) {
		panic(fmt.Sprintf("tensor: matvec shape %dx%d · %d", m.Rows, m.Cols, len(x)))
	}
	out := make([]float32, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = Dot(m.Row(i), x)
	}
	return out
}

// Dot returns the inner product of a and b accumulated in float32, striped
// across eight independent lanes — matching the accelerator's parallel MAC
// lane groups — so the sequential add dependency chain is broken eight ways
// and the loop retires more than one element per add-latency cycle.
//
// Canonical reduction order (part of the numeric contract, documented here
// and tested against a scalar single-accumulator loop): lane L accumulates the products at indices
// i+L over full 8-element groups in index order; the final fewer-than-8
// tail elements fold sequentially into lane 0 (so lengths < 8 are exactly
// the scalar sequential sum); the lanes then reduce as
// ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)). The shape is a pure function of
// the input length — never of data or timing — so Dot is deterministic for
// all inputs, NaN and Inf included.
//
//lint:allow floataccum striped lanes model the accelerator's parallel FP32 MACs
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: dot length %d != %d", len(a), len(b)))
	}
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	i := 0
	for ; i+8 <= len(a); i += 8 {
		aa, bb := a[i:i+8:i+8], b[i:i+8:i+8]
		s0 += float32(aa[0] * bb[0])
		s1 += float32(aa[1] * bb[1])
		s2 += float32(aa[2] * bb[2])
		s3 += float32(aa[3] * bb[3])
		s4 += float32(aa[4] * bb[4])
		s5 += float32(aa[5] * bb[5])
		s6 += float32(aa[6] * bb[6])
		s7 += float32(aa[7] * bb[7])
	}
	for ; i < len(a); i++ {
		s0 += float32(a[i] * b[i])
	}
	return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
}

// RoundFP16 quantizes every element of m through binary16 in place,
// emulating FP16 tensor storage, and returns m.
func (m Mat) RoundFP16() Mat {
	fp16.RoundSlice(m.Data)
	return m
}

// Rand fills m with values drawn from N(0, sigma) using rng and returns m.
func (m Mat) Rand(rng *rand.Rand, sigma float64) Mat {
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64() * sigma)
	}
	return m
}

// RandMat returns a rows×cols matrix of N(0, sigma) values.
func RandMat(rng *rand.Rand, rows, cols int, sigma float64) Mat {
	return New(rows, cols).Rand(rng, sigma)
}

// MaxAbsDiff returns the largest absolute element-wise difference between a
// and b. Panics on shape mismatch.
func MaxAbsDiff(a, b Mat) float32 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("tensor: diff shape mismatch")
	}
	var m float32
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// VStack concatenates matrices with equal column counts by rows.
func VStack(ms ...Mat) Mat {
	if len(ms) == 0 {
		return Mat{}
	}
	cols := ms[0].Cols
	rows := 0
	for _, m := range ms {
		if m.Cols != cols {
			panic("tensor: vstack column mismatch")
		}
		rows += m.Rows
	}
	out := New(rows, cols)
	off := 0
	for _, m := range ms {
		copy(out.Data[off:], m.Data)
		off += len(m.Data)
	}
	return out
}
