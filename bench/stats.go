package main

import "sort"

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no values.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fastTenth returns the mean of the smallest tenth of xs, at least one
// value, or 0 for no values. On a shared host, contention only ever adds
// time to an op, so the fastest ops estimate the program's own cost; their
// mean rather than the single fastest keeps the estimate from resting on
// one lucky op or depending on how many ops ran.
func fastTenth(xs []float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	k := max(len(s)/10, 1)
	t := 0.0
	for _, x := range s[:k] {
		t += x
	}
	return t / float64(k)
}

// quartiles returns the first, second and third quartiles of xs by the
// method of Python's statistics.quantiles(xs, n=4) ("exclusive"), so the
// spreads printed here match the ones a Python script computes from the
// same samples. It needs at least two values; with fewer every quartile is
// the median.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	if len(s) < 2 {
		m := median(s)
		return m, m, m
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// tailLadder is the set of percentiles a tail is reported at, highest
// first, in tenths of a percent so ranks are exact integers.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// tail returns the highest percentile of tailLadder that has at least ten
// samples beyond it, its nearest-rank value and the number of samples
// beyond it. ok is false when even the median has fewer than ten beyond.
func tail(xs []float64) (pct, v float64, beyond int, ok bool) {
	s := sorted(xs)
	for _, p := range tailLadder {
		rank := (p*len(s) + 999) / 1000 // ceil(p/1000 · n)
		if rank < 1 || len(s)-rank < 10 {
			continue
		}
		return float64(p) / 10, s[rank-1], len(s) - rank, true
	}
	return 0, 0, 0, false
}
