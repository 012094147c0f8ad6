// Package stats provides the small statistical helpers used by the
// evaluation harness: means, Pearson correlation (for the §5.1 estimator
// validation) and nearest-rank percentiles, read by in-place selection
// rather than by sorting the sample.
package stats

import (
	"errors"
	"math"
	"math/bits"
	"slices"
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

// NearestRank returns the index of the p-th percentile (0 ≤ p ≤ 100) in an
// ascending sample of n > 0 values by the nearest-rank method: the smallest
// value with at least p% of the sample at or below it.
func NearestRank(n int, p float64) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	return min(max(rank, 1), n) - 1
}

// Select reorders xs in place so that xs[k], for 0 ≤ k < len(xs), holds the
// value sort.Float64s would put at index k, no value before it is greater
// and none after it is smaller, and returns xs[k]. NaNs order first, as in
// sort.Float64s. Several percentiles of one sample come from successive
// selections, each inside the previous one's left part: after Select(xs,
// k), Select(xs[:k+1], j) for j ≤ k is the j-th value of the whole sample.
//
// It runs in expected linear time and never worse than O(n log n): a range
// that 2·log₂n partition rounds have not narrowed down is sorted instead.
func Select(xs []float64, k int) float64 {
	nan := 0
	for i, x := range xs {
		if x != x {
			xs[i], xs[nan] = xs[nan], x
			nan++
		}
	}
	if k >= nan {
		introselect(xs[nan:], k-nan)
	}
	return xs[k]
}

// introselect moves the k-th smallest of xs, which holds no NaN, to xs[k]
// with the smaller values before it and the larger after, and returns the
// number of partition rounds it ran. Each round partitions the range that
// holds k around the median of its first, middle and last values (Hoare's
// scheme, which splits runs of equal values evenly) and keeps the side
// that holds k; short ranges and the fallback are sorted.
func introselect(xs []float64, k int) (rounds int) {
	lo, hi := 0, len(xs)
	limit := 2 * bits.Len(uint(len(xs)))
	for hi-lo > 12 {
		if rounds == limit {
			slices.Sort(xs[lo:hi])
			return rounds
		}
		rounds++
		a, pivot, c := xs[lo], xs[int(uint(lo+hi)>>1)], xs[hi-1]
		if pivot < a {
			a, pivot = pivot, a
		}
		if c < pivot {
			pivot = c
			if pivot < a {
				pivot = a
			}
		}
		// The pivot's own slot stops both scans in the first pass and each
		// swap leaves a stop for the next, so i and j stay in range. At the
		// end xs[lo:i] ≤ pivot ≤ xs[j+1:hi], and i == j+1 or xs[i] == pivot.
		i, j := lo, hi-1
		for {
			for xs[i] < pivot {
				i++
			}
			for pivot < xs[j] {
				j--
			}
			if i >= j {
				break
			}
			xs[i], xs[j] = xs[j], xs[i]
			i++
			j--
		}
		switch {
		case k < i:
			hi = i
		case k > j:
			lo = j + 1
		default:
			return rounds // k == i == j holds the pivot
		}
	}
	slices.Sort(xs[lo:hi])
	return rounds
}
