package stats

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("Mean = %v, want 2.5", m)
	}
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %v, want 0", m)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{10, 20, 30, 40, 50}
	r, err := Pearson(xs, ys)
	if err != nil || !almost(r, 1, 1e-12) {
		t.Errorf("Pearson = %v, %v; want 1", r, err)
	}
	for i := range ys {
		ys[i] = -ys[i]
	}
	r, err = Pearson(xs, ys)
	if err != nil || !almost(r, -1, 1e-12) {
		t.Errorf("Pearson anti = %v, %v; want -1", r, err)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err != ErrMismatch {
		t.Errorf("mismatch error not returned: %v", err)
	}
	if _, err := Pearson([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("zero variance not detected")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err == nil {
		t.Error("single sample not rejected")
	}
}

// Pearson is invariant to affine rescaling of either variable.
func TestPearsonAffineInvariance(t *testing.T) {
	f := func(a, b float64) bool {
		scale := math.Mod(math.Abs(a), 10) + 0.5
		shift := math.Mod(b, 100)
		xs := []float64{1, 3, 2, 8, 5, 7}
		ys := []float64{2, 5, 3, 9, 6, 10}
		r1, err1 := Pearson(xs, ys)
		zs := make([]float64, len(ys))
		for i, y := range ys {
			zs[i] = scale*y + shift
		}
		r2, err2 := Pearson(xs, zs)
		return err1 == nil && err2 == nil && almost(r1, r2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// percentileSorted is the oracle Select is checked against: the p-th
// nearest-rank percentile read off a sorted sample, 0 for an empty one.
func percentileSorted(sorted []float64, p float64) float64 {
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

func TestPercentile(t *testing.T) {
	xs := []float64{5, 2, 4, 1, 3}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {20, 1}, {40, 2}, {50, 3}, {95, 5}, {99, 5}, {100, 5},
	}
	for _, c := range cases {
		if got := Select(slices.Clone(xs), NearestRank(len(xs), c.p)); got != c.want {
			t.Errorf("percentile %v = %v, want %v", c.p, got, c.want)
		}
		if got := percentileSorted([]float64{1, 2, 3, 4, 5}, c.p); got != c.want {
			t.Errorf("percentileSorted(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentileSorted(nil, 50); got != 0 {
		t.Errorf("empty sample percentile = %v, want 0", got)
	}
	if got := Select([]float64{7}, NearestRank(1, 99)); got != 7 {
		t.Errorf("singleton p99 = %v, want 7", got)
	}
}

// sameFloat reports whether a and b are the same value, counting any two
// NaNs as the same.
func sameFloat(a, b float64) bool { return a == b || a != a && b != b }

// checkSelect selects every index of xs in a copy and compares the value
// with the sorted sample's and the partition around it; then it reads the
// p99, p95 and p50 by successive selections, each in the previous one's
// left part, and compares them with the nearest-rank oracle.
func checkSelect(t *testing.T, xs []float64) {
	t.Helper()
	sorted := slices.Clone(xs)
	sort.Float64s(sorted)
	below := func(a, b float64) bool { return a < b || a != a && b == b } // sort.Float64s's order
	for k := range xs {
		ys := slices.Clone(xs)
		got := Select(ys, k)
		if !sameFloat(got, sorted[k]) || !sameFloat(ys[k], got) {
			t.Fatalf("Select(%v, %d) = %v (xs[k] %v), sorted has %v", xs, k, got, ys[k], sorted[k])
		}
		for i, y := range ys {
			if i < k && below(got, y) || i > k && below(y, got) {
				t.Fatalf("Select(%v, %d) left %v at %d of %v", xs, k, y, i, ys)
			}
		}
	}
	if len(xs) == 0 {
		return
	}
	ys := slices.Clone(xs)
	hi := len(ys)
	for _, p := range []float64{99, 95, 50} {
		k := NearestRank(len(xs), p)
		if got, want := Select(ys[:hi], k), percentileSorted(sorted, p); !sameFloat(got, want) {
			t.Fatalf("p%v of %v by selection = %v, sorted %v", p, xs, got, want)
		}
		hi = k + 1
	}
}

// FuzzSelectMatchesSort checks Select against a full sort for samples of
// up to 200 values drawn from an alphabet of at most 256 (so duplicates are
// heavy), arranged as they come, sorted, reversed or organ-pipe, with
// NaNs and signed zeros among them.
func FuzzSelectMatchesSort(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{3, 1, 2}, uint8(3), uint8(0))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(200), uint8(1))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 1}, uint8(2), uint8(2))
	f.Add([]byte{0, 255, 1, 254, 2, 253, 3, 252, 4, 251, 5, 250, 6, 249, 7, 248}, uint8(16), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, alphabet, shape uint8) {
		if len(data) > 200 {
			data = data[:200]
		}
		xs := make([]float64, len(data))
		for i, b := range data {
			if alphabet > 0 {
				b %= alphabet
			}
			switch b {
			case 0:
				xs[i] = math.NaN()
			case 1:
				xs[i] = math.Copysign(0, -1)
			default:
				xs[i] = float64(b) - 100
			}
		}
		switch shape % 4 {
		case 1:
			sort.Float64s(xs)
		case 2:
			sort.Float64s(xs)
			slices.Reverse(xs)
		case 3: // organ pipe: ascending, then descending
			sort.Float64s(xs)
			slices.Reverse(xs[len(xs)/2:])
		}
		checkSelect(t, xs)
	})
}

// killerInput returns n values on which introselect, selecting their
// maximum, narrows its range by only a few values per round. It replays
// introselect's pivot choice and partition against McIlroy's adversary
// ("A Killer Adversary for Quicksort", 1999): every value starts as gas,
// above every solid value; a comparison of two gas values first freezes one
// of them, the pivot candidate when it is one, at the next solid value.
// Each round's pivot is thus frozen near the bottom of its range, and the
// gas that ends up in the kept side is compared only with solid values. It
// must mirror introselect's comparisons one for one.
func killerInput(n, rounds int) []float64 {
	const gas = -1
	val := make([]int, n)
	for i := range val {
		val[i] = gas
	}
	solid, candidate := 0, -1
	less := func(x, y int) bool {
		if val[x] == gas && val[y] == gas {
			if x == candidate {
				val[x], solid = solid, solid+1
			} else {
				val[y], solid = solid, solid+1
			}
		}
		switch {
		case val[x] == gas:
			candidate = x
			return false
		case val[y] == gas:
			candidate = y
			return true
		}
		return val[x] < val[y]
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	k := n - 1
	lo, hi := 0, n
	for r := 0; r < rounds && hi-lo > 12; r++ {
		a, pivot, c := ids[lo], ids[int(uint(lo+hi)>>1)], ids[hi-1]
		if less(pivot, a) {
			a, pivot = pivot, a
		}
		if less(c, pivot) {
			pivot = c
			if less(pivot, a) {
				pivot = a
			}
		}
		i, j := lo, hi-1
		for {
			for less(ids[i], pivot) {
				i++
			}
			for less(pivot, ids[j]) {
				j--
			}
			if i >= j {
				break
			}
			ids[i], ids[j] = ids[j], ids[i]
			i++
			j--
		}
		switch {
		case k < i:
			hi = i
		case k > j:
			lo = j + 1
		default:
			lo, hi = k, k
		}
	}
	xs := make([]float64, n)
	for i, v := range val {
		if v == gas {
			v = n // gas that was never frozen: the largest values, all equal
		}
		xs[i] = float64(v)
	}
	return xs
}

// On a median-of-3 killer input of 2^16 values, introselect runs out of
// partition rounds and sorts what is left — O(n log n) rather than the
// quadratic time plain quickselect would take — and still selects the
// right value.
func TestSelectMedianOf3KillerFallsBack(t *testing.T) {
	const n = 1 << 16
	limit := 2 * bits.Len(uint(n))
	xs := killerInput(n, limit)
	sorted := slices.Clone(xs)
	sort.Float64s(sorted)
	ys := slices.Clone(xs)
	if rounds := introselect(ys, n-1); rounds != limit {
		t.Fatalf("introselect ran %d partition rounds, want the fallback at %d", rounds, limit)
	}
	if ys[n-1] != sorted[n-1] {
		t.Fatalf("selected %v, want %v", ys[n-1], sorted[n-1])
	}
	// The input is a killer: each round freezes only a few values near the
	// bottom of the range, so a quickselect without the limit would run
	// about n/2 rounds (32,762 measured at this size).
	frozen := 0
	for _, x := range killerInput(n, 2*limit) {
		if x < n {
			frozen++
		}
	}
	if frozen > 8*limit {
		t.Errorf("the adversary froze %d values in %d rounds, want a few per round", frozen, 2*limit)
	}
	for _, k := range []int{0, n / 2, NearestRank(n, 95), NearestRank(n, 99)} {
		if got := Select(slices.Clone(xs), k); got != sorted[k] {
			t.Errorf("Select(killer, %d) = %v, want %v", k, got, sorted[k])
		}
	}
}
