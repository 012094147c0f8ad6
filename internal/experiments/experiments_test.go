package experiments

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/repcache"
)

// newRunner returns a Runner on the default Table 1 testbed.
func newRunner() Runner { return Runner{TB: device.DefaultTestbed()} }

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig2", "fig4", "table3", "fig10", "fig11", "fig12a", "fig12b",
		"fig13", "fig14", "fig15", "fig16a", "fig16b", "fig17a", "fig17b",
		"fig18c", "est", "isp", "ext-csd", "ext-cxl", "ext-ftl"}
	got := map[string]bool{}
	for _, g := range Registry() {
		got[g.ID] = true
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if len(Registry()) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(Registry()), len(want))
	}
}

func TestByID(t *testing.T) {
	g, err := ByID("fig10")
	if err != nil || g.ID != "fig10" {
		t.Errorf("ByID(fig10) = %+v, %v", g, err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown ID accepted")
	}
}

// Every experiment (except the slow accuracy one, covered in longbench
// tests) must produce a non-empty, well-formed table.
func TestAllGeneratorsProduceRows(t *testing.T) {
	r := newRunner()
	for _, g := range Registry() {
		if g.ID == "fig18c" {
			continue // exercised by TestFig18cShape and the longbench suite
		}
		tab := g.Run(r)
		if tab.ID != g.ID {
			t.Errorf("%s: table ID %q mismatched", g.ID, tab.ID)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: no rows", g.ID)
		}
		for i, row := range tab.Rows {
			if len(row) != len(tab.Headers) {
				t.Errorf("%s row %d: %d cells for %d headers", g.ID, i, len(row), len(tab.Headers))
			}
		}
		if !strings.Contains(tab.String(), tab.Title) {
			t.Errorf("%s: String() missing title", g.ID)
		}
	}
}

// Fig. 2 shape: the KV I/O share exceeds 60% at long context and large
// batch, and the footprint reaches terabytes.
func TestFig2Shape(t *testing.T) {
	tab := newRunner().Fig2()
	last := tab.Rows[len(tab.Rows)-1] // s=128K, bs=16
	share, err := strconv.ParseFloat(strings.TrimSuffix(last[5], "%"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if share < 60 {
		t.Errorf("KV I/O share at 128K/bs16 = %.1f%%, paper reports > 60%%", share)
	}
	total, _ := strconv.ParseFloat(last[4], 64)
	if total < 5 {
		t.Errorf("total footprint %.1f TB, expected terabyte scale", total)
	}
}

// Fig. 10 shape: HILOS(16) column always reports a speedup above 4x.
func TestFig10Shape(t *testing.T) {
	tab := newRunner().Fig10()
	for _, row := range tab.Rows {
		cell := strings.TrimSuffix(row[len(row)-1], "x")
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			t.Fatalf("unparseable HILOS(16) cell %q", row[len(row)-1])
		}
		if v < 4 {
			t.Errorf("%s %s: HILOS(16) = %.2fx, want > 4x", row[0], row[1], v)
		}
	}
}

// Fig. 18c: generated on a smaller budget here; shape assertions live in
// the longbench package tests. This checks table plumbing only.
func TestFig18cShape(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy suite is slow")
	}
	tab := newRunner().Fig18c()
	if len(tab.Rows) != 5 {
		t.Fatalf("fig18c has %d rows, want 5", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[1] != row[2] {
			t.Errorf("%s: HILOS (%s) differs from FlashAttention (%s)", row[0], row[2], row[1])
		}
	}
}

// TestParallelRunnerByteIdentical: the worker-pool runner must assemble
// tables byte-identical to a sequential evaluation, from a cold report
// cache in both configurations. GOMAXPROCS sizes the pool, so the test
// varies it. A representative slice of converted generators keeps the
// double evaluation affordable.
func TestParallelRunnerByteIdentical(t *testing.T) {
	r := newRunner()
	gens := []struct {
		id  string
		run func(Runner) Table
	}{
		{"fig2", Runner.Fig2},
		{"fig11", Runner.Fig11},
		{"fig16b", Runner.Fig16b},
		{"ext-cxl", Runner.ExtCXL},
		{"ext-ftl", Runner.ExtFTL},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	render := func(procs int) map[string]string {
		runtime.GOMAXPROCS(procs)
		repcache.Reset()
		out := map[string]string{}
		for _, g := range gens {
			out[g.id] = g.run(r).String()
		}
		return out
	}
	seq := render(1)
	par := render(8)
	for _, g := range gens {
		if seq[g.id] != par[g.id] {
			t.Errorf("%s: parallel table differs from sequential:\n--- sequential ---\n%s--- parallel ---\n%s",
				g.id, seq[g.id], par[g.id])
		}
	}
	// And the parallel runner must be deterministic across repeated runs.
	again := render(8)
	for _, g := range gens {
		if par[g.id] != again[g.id] {
			t.Errorf("%s: parallel runner nondeterministic across runs", g.id)
		}
	}
}

// TestRunPointsOrdering: runPoints must concatenate rows and notes in point
// order regardless of GOMAXPROCS, which sizes its worker pool.
func TestRunPointsOrdering(t *testing.T) {
	var points []func() group
	for i := 0; i < 37; i++ {
		points = append(points, func() group {
			return group{
				rows:  [][]string{{strconv.Itoa(i)}},
				notes: []string{"n" + strconv.Itoa(i)},
			}
		})
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3, 8} {
		runtime.GOMAXPROCS(procs)
		rows, notes := runPoints(points)
		if len(rows) != 37 || len(notes) != 37 {
			t.Fatalf("GOMAXPROCS=%d: %d rows, %d notes", procs, len(rows), len(notes))
		}
		for i := range rows {
			if rows[i][0] != strconv.Itoa(i) || notes[i] != "n"+strconv.Itoa(i) {
				t.Fatalf("GOMAXPROCS=%d: out-of-order assembly at %d: row %q note %q",
					procs, i, rows[i][0], notes[i])
			}
		}
	}
}

func TestTableString(t *testing.T) {
	tab := Table{ID: "x", Title: "T", Headers: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	s := tab.String()
	for _, want := range []string{"== x: T ==", "a", "bb", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}
