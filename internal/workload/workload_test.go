package workload

import (
	"math"
	"testing"
)

func TestClassesMatchPaper(t *testing.T) {
	// §6.6: Small (I:256/O:100), Medium (I:1K/O:350), Long (I:8K/O:350).
	if Short.Input != 256 || Short.Output != 100 {
		t.Errorf("Short = %+v", Short)
	}
	if Medium.Input != 1024 || Medium.Output != 350 {
		t.Errorf("Medium = %+v", Medium)
	}
	if Long.Input != 8192 || Long.Output != 350 {
		t.Errorf("Long = %+v", Long)
	}
	if len(Classes()) != 3 {
		t.Errorf("Classes() returned %d entries", len(Classes()))
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	g1, err := NewGenerator(7, AzureLikeMix())
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(7, AzureLikeMix())
	a, b := g1.Trace(100), g2.Trace(100)
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

func TestGeneratorMixProportions(t *testing.T) {
	g, _ := NewGenerator(1, AzureLikeMix())
	counts := map[string]int{}
	n := 20000
	for _, c := range g.Trace(n) {
		counts[c.Name]++
	}
	for _, m := range AzureLikeMix() {
		got := float64(counts[m.Class.Name]) / float64(n)
		if math.Abs(got-m.Weight) > 0.02 {
			t.Errorf("%s frequency %.3f, want ≈ %.2f", m.Class.Name, got, m.Weight)
		}
	}
}

func TestGeneratorErrors(t *testing.T) {
	if _, err := NewGenerator(1, nil); err == nil {
		t.Error("empty mix accepted")
	}
	if _, err := NewGenerator(1, []Mix{{Short, -1}}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewGenerator(1, []Mix{{Short, 0}}); err == nil {
		t.Error("zero total weight accepted")
	}
}
