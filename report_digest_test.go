package hilos

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/pipeline"
)

const reportDigestFile = "report_digests.txt"

// reportDigests runs every system over the pinned grid (devices {4,16} ×
// every preset model × context {1K,16K,128K} × batch {1,16,64} × NoTrace
// off/on) straight through the engine table, with no report cache in
// between, and returns each report's SHA-256 of its JSON encoding under a
// stable case name, in grid order.
func reportDigests(t *testing.T) (names []string, sums map[string]string) {
	t.Helper()
	sums = map[string]string{}
	tb := device.DefaultTestbed()
	for _, sys := range engine.Systems() {
		for _, devices := range []int{4, 16} {
			eng, err := engine.New(sys, engine.Config{Testbed: tb, Devices: devices})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range model.All() {
				for _, ctx := range []int{1 << 10, 16 << 10, 128 << 10} {
					for _, batch := range []int{1, 16, 64} {
						for _, noTrace := range []bool{false, true} {
							req := pipeline.Request{Model: m, Batch: batch, Context: ctx, OutputLen: 64, NoTrace: noTrace}
							b, err := json.Marshal(eng.Run(req))
							if err != nil {
								t.Fatal(err)
							}
							name := fmt.Sprintf("%s/d%d/%s/s%d/b%d/notrace=%t", sys, devices, m.Name, ctx, batch, noTrace)
							sum := sha256.Sum256(b)
							names = append(names, name)
							sums[name] = hex.EncodeToString(sum[:])
						}
					}
				}
			}
		}
	}
	return names, sums
}

// TestReportDigests pins every engine's Report, bit for bit, over the grid
// above: any change to a decode-step task graph, the scheduler's order or
// arithmetic, or the report assembly shows up as a digest mismatch. The
// bench goldens hash only formatted tables, so this is what holds the
// engines' full-precision outputs still. Run with -update to re-record.
func TestReportDigests(t *testing.T) {
	path := filepath.Join("testdata", reportDigestFile)
	names, got := reportDigests(t)
	if *update {
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, "%s %s\n", n, got[n])
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
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
	if len(want) != len(names) {
		t.Errorf("%s holds %d digests, want %d", path, len(want), len(names))
	}
	for _, n := range names {
		if got[n] != want[n] {
			t.Errorf("%s: report digest %s, recorded %s", n, got[n], want[n])
		}
	}
}
