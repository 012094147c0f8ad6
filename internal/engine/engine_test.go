package engine

import (
	"math"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/pipeline"
)

type fakeEngine struct {
	sys System
	cfg Config
}

func (f fakeEngine) Name() System     { return f.sys }
func (f fakeEngine) Describe() string { return "fake engine for registry tests" }
func (f fakeEngine) Run(pipeline.Request) pipeline.Report {
	return pipeline.Report{System: string(f.sys), Batch: 1, StepSec: 1}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

func TestRegisterValidation(t *testing.T) {
	mustPanic(t, "empty system", func() {
		Register(Spec{System: "", New: func(Config) (Engine, error) { return nil, nil }})
	})
	mustPanic(t, "nil factory", func() {
		Register(Spec{System: "test-nil-factory"})
	})
}

func TestRegisterDuplicatePanics(t *testing.T) {
	spec := Spec{
		System:   "test-dup",
		Describe: "duplicate registration probe",
		New:      func(cfg Config) (Engine, error) { return fakeEngine{sys: "test-dup", cfg: cfg}, nil },
	}
	Register(spec)
	mustPanic(t, "duplicate registration", func() { Register(spec) })
}

func TestNewUnknownSystem(t *testing.T) {
	_, err := New("no-such-system", Config{Testbed: device.DefaultTestbed()})
	if err == nil || !strings.Contains(err.Error(), "unknown system") {
		t.Fatalf("unknown system resolved: %v", err)
	}
}

func TestNewNormalizesAndValidates(t *testing.T) {
	var got Config
	Register(Spec{
		System:   "test-probe",
		Describe: "config normalization probe",
		New: func(cfg Config) (Engine, error) {
			got = cfg
			return fakeEngine{sys: "test-probe", cfg: cfg}, nil
		},
	})

	eng, err := New("test-probe", Config{Testbed: device.DefaultTestbed(), Alpha: -0.25})
	if err != nil {
		t.Fatal(err)
	}
	if got.Devices != 8 || got.SpillInterval != 16 || got.Alpha != AlphaAuto {
		t.Errorf("config not normalized to paper defaults: %+v", got)
	}
	if eng.Name() != "test-probe" || eng.Describe() == "" {
		t.Errorf("engine identity wrong: %q / %q", eng.Name(), eng.Describe())
	}

	// Invalid testbed and out-of-range α are rejected before the factory runs.
	if _, err := New("test-probe", Config{}); err == nil {
		t.Error("zero-value testbed accepted")
	}
	if _, err := New("test-probe", Config{Testbed: device.DefaultTestbed(), Alpha: 1.5}); err == nil {
		t.Error("α > 1 accepted")
	}
	if _, err := New("test-probe", Config{Testbed: device.DefaultTestbed(), Alpha: math.NaN()}); err == nil {
		t.Error("NaN α accepted")
	}
}

func TestSystemsOrdering(t *testing.T) {
	Register(Spec{
		System: "test-ranked", Rank: 5, Describe: "ranked probe",
		New: func(cfg Config) (Engine, error) { return fakeEngine{sys: "test-ranked", cfg: cfg}, nil },
	})
	all := Systems()
	if len(all) == 0 || all[0] != "test-ranked" {
		t.Errorf("rank 5 system not first: %v", all)
	}
	// Unranked registrations (rank 0) append after every ranked system.
	if len(all) > 1 {
		last := all[len(all)-1]
		if spec, ok := Lookup(last); !ok || spec.Rank < 1000 {
			t.Errorf("last system %q should be an unranked append, rank %d", last, spec.Rank)
		}
	}
}
