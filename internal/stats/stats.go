// Package stats provides the small statistical helpers used by the
// evaluation harness: means, Pearson correlation (for the §5.1 estimator
// validation) and geometric means for speedup summaries.
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

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
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
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance sample")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// GeoMean returns the geometric mean of xs. All values must be positive.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
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

// MinMax returns the smallest and largest values in xs.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
