package main

import (
	"io"
	"strings"
	"testing"
)

// TestRunTuneRejectsBadShapes: a context too short for the smallest swept
// span used to index an empty sweep, and a non-positive head dimension
// printed a meaningless budget. Both are errors now.
func TestRunTuneRejectsBadShapes(t *testing.T) {
	for _, c := range []struct {
		name     string
		seq, dim int
		want     string
	}{
		{"short context", 100, 128, "-tune-seq"},
		{"zero dim", 64 * 1024, 0, "-tune-dim"},
		{"negative dim", 64 * 1024, -8, "-tune-dim"},
	} {
		err := runTune(io.Discard, c.seq, c.dim, 1)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: runTune(seq=%d, dim=%d) = %v, want an error naming %s", c.name, c.seq, c.dim, err, c.want)
		}
	}
}

// TestRunTuneShortestContext runs the one-point sweep at the shortest
// accepted context and checks it reports the knee.
func TestRunTuneShortestContext(t *testing.T) {
	var out strings.Builder
	if err := runTune(&out, minTuneSpan/2, 8, 1); err != nil {
		t.Fatal(err)
	}
	if want := "knee span 256"; !strings.Contains(out.String(), want) {
		t.Errorf("output lacks %q:\n%s", want, out.String())
	}
}
