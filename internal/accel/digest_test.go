package accel

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tensor"
)

var update = flag.Bool("update", false, "rewrite testdata/attention_digests.txt from the current datapath")

const digestFile = "attention_digests.txt"

// digestCase is one pinned AttentionWorkers input: shape, input scale,
// optional random mask, optional host partial of hostRows buffered tokens,
// and the chunk-span pin (0 keeps the budget-derived default).
type digestCase struct {
	dg, s, d int
	sigma    float64
	mask     bool
	hostRows int
	span     int
}

func (c digestCase) name() string {
	return fmt.Sprintf("dg%d_s%d_d%d_sigma%g_mask%t_host%d_span%d", c.dg, c.s, c.d, c.sigma, c.mask, c.hostRows, c.span)
}

// digestCases covers group sizes 1–8, head dims up to 128, ragged tails,
// masks, a host partial, subnormal-range inputs and every chunk pin.
func digestCases() []digestCase {
	var cs []digestCase
	for _, span := range []int{0, 128, 256, 384} {
		cs = append(cs,
			digestCase{dg: 1, s: 1, d: 8, sigma: 1, span: span},
			digestCase{dg: 1, s: 128, d: 64, sigma: 1, span: span},
			digestCase{dg: 2, s: 300, d: 16, sigma: 1, mask: true, span: span},
			digestCase{dg: 3, s: 513, d: 128, sigma: 1, span: span},
			digestCase{dg: 4, s: 1000, d: 128, sigma: 1, hostRows: 16, span: span},
			digestCase{dg: 5, s: 777, d: 40, sigma: 2, mask: true, hostRows: 7, span: span},
			digestCase{dg: 8, s: 4096, d: 16, sigma: 1, mask: true, span: span},
			digestCase{dg: 6, s: 2100, d: 96, sigma: 1, span: span},
			digestCase{dg: 2, s: 257, d: 32, sigma: 1e-5, span: span},
		)
	}
	return cs
}

// digest runs one case and hashes the output bits together with its shape.
func (c digestCase) digest(t *testing.T, workers int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(c.dg*1_000_003 + c.s*131 + c.d)))
	a, err := New(Config{DGroup: c.dg, HeadDim: c.d})
	if err != nil {
		t.Fatal(err)
	}
	q := tensor.RandMat(rng, c.dg, c.d, c.sigma)
	k := tensor.RandMat(rng, c.s, c.d, c.sigma)
	v := tensor.RandMat(rng, c.s, c.d, c.sigma)
	var mask []bool
	if c.mask {
		mask = make([]bool, c.s)
		for i := range mask {
			mask[i] = rng.Intn(5) != 0
		}
	}
	var hostScores, hostV tensor.Mat
	if c.hostRows > 0 {
		hostScores = tensor.RandMat(rng, c.dg, c.hostRows, 1)
		hostV = tensor.RandMat(rng, c.hostRows, c.d, 1)
	}
	out, err := a.AttentionWorkers(q, k, v, mask, hostScores, hostV, workers, c.span)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, [2]int64{int64(out.Rows), int64(out.Cols)})
	for _, x := range out.Data {
		binary.Write(h, binary.LittleEndian, math.Float32bits(x))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAttentionWorkersDigests pins the datapath's output bits to digests
// recorded in testdata: any change to quantization, fold order or the merge
// tree shows up as a mismatch. Run with -update to re-record.
func TestAttentionWorkersDigests(t *testing.T) {
	path := filepath.Join("testdata", digestFile)
	if *update {
		var b strings.Builder
		for _, c := range digestCases() {
			fmt.Fprintf(&b, "%s %s\n", c.name(), c.digest(t, 1))
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	cases := digestCases()
	if len(want) != len(cases) {
		t.Fatalf("%s holds %d digests, the table has %d cases", path, len(want), len(cases))
	}
	for _, c := range cases {
		for _, w := range []int{1, 3} {
			if got := c.digest(t, w); got != want[c.name()] {
				t.Errorf("%s workers=%d: digest %.12s, recorded %.12s", c.name(), w, got, want[c.name()])
			}
		}
	}
}
