// Package stats provides the small statistical helpers used by the
// evaluation harness: means, Pearson correlation (for the §5.1 estimator
// validation) and nearest-rank percentiles.
package stats

import (
	"errors"
	"math"
)

// ErrMismatch is returned when paired-sample inputs differ in length.
var ErrMismatch = errors.New("stats: sample lengths differ")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Pearson returns the Pearson correlation coefficient of the paired samples
// (xs[i], ys[i]). It returns ErrMismatch if the lengths differ and an error
// if either sample has zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrMismatch
	}
	if len(xs) < 2 {
		return 0, errors.New("stats: need at least two samples")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += float64(dx * dy)
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance sample")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// PercentileSorted returns the p-th percentile (0 ≤ p ≤ 100) of an
// ascending sample by the nearest-rank method: the smallest value with at
// least p% of the sample at or below it. Returns 0 for an empty sample.
// Callers sort once and read as many percentiles as they need.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
