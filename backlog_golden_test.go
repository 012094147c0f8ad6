package hilos

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/backlog_golden.json and testdata/report_digests.txt from the current code")

// backlogGolden pins one Backlog summary. Floats are recorded with %.17g, so
// every value round-trips exactly.
type backlogGolden struct {
	Name         string
	MakespanSec  string
	OutputTokens int64
	Batches      int
	FailedJobs   int
	PerClassSec  map[string]string
	BusySec      []string // per pipeline
	PipeBatches  []int    // per pipeline
}

func g17(v float64) string { return fmt.Sprintf("%.17g", v) }

func backlogGoldenOf(name string, s ClusterSummary) backlogGolden {
	g := backlogGolden{
		Name:         name,
		MakespanSec:  g17(s.MakespanSec),
		OutputTokens: s.OutputTokens,
		Batches:      s.Batches,
		FailedJobs:   s.FailedJobs,
		PerClassSec:  map[string]string{},
	}
	for c, sec := range s.PerClassSec {
		g.PerClassSec[c] = g17(sec)
	}
	for _, ps := range s.Pipelines {
		g.BusySec = append(g.BusySec, g17(ps.BusySec))
		g.PipeBatches = append(g.PipeBatches, ps.Batches)
	}
	return g
}

// backlogGoldenCases is the pinned grid: the offline-summarization example's
// deployment (seed 7, OPT-66B on HILOS) and TestBacklogPipelinesSpeedup's
// (seed 11, OPT-30B on vLLM), 200 requests each, at batch sizes 16 and 7
// over 1, 2 and 4 pipelines of 16-device hosts.
func backlogGoldenCases(t *testing.T) []backlogGolden {
	t.Helper()
	var out []backlogGolden
	for _, dep := range []struct {
		seed  int64
		model string
		sys   System
	}{{7, "OPT-66B", SystemHILOS}, {11, "OPT-30B", SystemVLLM}} {
		m, err := ModelByName(dep.model)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := NewWorkloadTrace(dep.seed, 200)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{16, 7} {
			for _, pipes := range []int{1, 2, 4} {
				s := Must(New(WithDevices(16), WithPipelines(pipes)))
				sum, err := s.Backlog(m, trace, batch, dep.sys)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("seed%d/%s/%s/b%d/p%d", dep.seed, dep.model, dep.sys, batch, pipes)
				out = append(out, backlogGoldenOf(name, sum))
			}
		}
	}
	return out
}

// closeRel reports whether two %.17g-recorded floats agree within rel
// relative error.
func closeRel(t *testing.T, got, want string, rel float64) bool {
	t.Helper()
	g, err1 := strconv.ParseFloat(got, 64)
	w, err2 := strconv.ParseFloat(want, 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("unparsable float %q / %q", got, want)
	}
	return math.Abs(g-w) <= rel*math.Abs(w)
}

// Backlog summaries are pinned: integer fields exactly, seconds within 1e-12
// relative. Makespan and busy seconds sum every batch a pipeline ran, and
// each batch's seconds are its finish minus its start, so an equivalent
// schedule that runs the same batches in another order moves only their
// last bits.
func TestBacklogGolden(t *testing.T) {
	got := backlogGoldenCases(t)
	path := filepath.Join("testdata", "backlog_golden.json")
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	var want []backlogGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden has %d", len(got), len(want))
	}
	const rel = 1e-12
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name {
			t.Fatalf("case %d is %s, golden has %s", i, g.Name, w.Name)
		}
		if g.OutputTokens != w.OutputTokens || g.Batches != w.Batches || g.FailedJobs != w.FailedJobs ||
			!reflect.DeepEqual(g.PipeBatches, w.PipeBatches) || len(g.PerClassSec) != len(w.PerClassSec) {
			t.Errorf("%s: got %+v, want %+v", w.Name, g, w)
			continue
		}
		for c, sec := range w.PerClassSec {
			if !closeRel(t, g.PerClassSec[c], sec, rel) {
				t.Errorf("%s: class %s busy %s, want %s", w.Name, c, g.PerClassSec[c], sec)
			}
		}
		if !closeRel(t, g.MakespanSec, w.MakespanSec, rel) {
			t.Errorf("%s: makespan %s, want %s", w.Name, g.MakespanSec, w.MakespanSec)
		}
		if len(g.BusySec) != len(w.BusySec) {
			t.Errorf("%s: %d pipelines, want %d", w.Name, len(g.BusySec), len(w.BusySec))
			continue
		}
		for p := range w.BusySec {
			if !closeRel(t, g.BusySec[p], w.BusySec[p], rel) {
				t.Errorf("%s: pipeline %d busy %s, want %s", w.Name, p, g.BusySec[p], w.BusySec[p])
			}
		}
	}
}
