package main

import (
	"math"
	"slices"
	"strings"
	"testing"

	hilos "repro"
)

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// FuzzParseFlags feeds one arbitrary string to every flag parser. The
// contract is the same for all five: never panic, and either return an
// error or a value the cluster can use as is.
func FuzzParseFlags(f *testing.F) {
	for _, s := range []string{
		"", "all", "poisson", "least-loaded",
		"hilos:2x16,flex-dram:1", "hilos:0", "hilos:1x-8", "hilos:65536,flex-dram:1",
		"fail-stop:pipe=0,at=120,repair=60;transient:prob=0.05",
		"straggler:pipe=1,at=NaN,for=3,factor=2", "wear-out:budget=Inf", "transient:pipe=1.5,prob=0.1",
		"Short=1@15,Medium=0", "Short=1@NaN", "Short=1@+Inf", "Short=-1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if opts, pipes, err := parseFleet(spec); err == nil {
			if len(opts) == 0 || pipes < len(opts) || pipes > maxFleetPipelines {
				t.Errorf("parseFleet(%q) = %d options over %d pipelines", spec, len(opts), pipes)
			}
		}

		if plan, err := parseFaults(spec); err == nil && plan != nil {
			if !finite(plan.TransientProb) || !finite(plan.WearBudgetBytes) {
				t.Errorf("parseFaults(%q): non-finite plan %+v", spec, *plan)
			}
			for _, e := range plan.Events {
				if !e.Kind.Valid() || e.Pipeline < 0 || e.Pipeline >= maxFleetPipelines ||
					!finite(e.AtSec) || !finite(e.DurationSec) || !finite(e.Factor) || !finite(e.BudgetBytes) {
					t.Errorf("parseFaults(%q): invalid event %+v", spec, e)
				}
			}
		} else if err == nil && spec != "" {
			t.Errorf("parseFaults(%q) = nil plan, nil error", spec)
		}

		if rules, err := parsePriorities(spec); err == nil {
			if spec != "" && len(rules) == 0 {
				t.Errorf("parsePriorities(%q) = no rules, nil error", spec)
			}
			for _, r := range rules {
				if r.Class == "" || r.Priority < 0 || !finite(r.DeadlineSec) || r.DeadlineSec < 0 {
					t.Errorf("parsePriorities(%q): invalid rule %+v", spec, r)
				}
			}
		}

		if policies, err := parsePolicies(spec); err == nil {
			if len(policies) == 0 {
				t.Errorf("parsePolicies(%q) = no policies, nil error", spec)
			}
			for _, p := range policies {
				if !slices.Contains(hilos.DispatchPolicies(), p) {
					t.Errorf("parsePolicies(%q) returned unknown policy %q", spec, p)
				}
			}
		}

		if p, err := parseArrivals(spec); err == nil && !slices.Contains(hilos.ArrivalProcesses(), p) {
			t.Errorf("parseArrivals(%q) returned unknown process %q", spec, p)
		}
	})
}

// TestParseRejectsNonFinite: ParseFloat reads "NaN" and "Inf", and NaN
// fails every comparison, so the range checks alone let them through.
// Each is now an error that names the offending term.
func TestParseRejectsNonFinite(t *testing.T) {
	for _, spec := range []string{"Short=1@NaN", "Short=1@Inf", "Short=1@+Inf", "Medium=0,Short=1@nan"} {
		if _, err := parsePriorities(spec); err == nil || !strings.Contains(err.Error(), "Short=1@") {
			t.Errorf("parsePriorities(%q) = %v, want an error naming the term", spec, err)
		}
	}
	for _, spec := range []string{
		"fail-stop:pipe=0,at=NaN,repair=60",
		"straggler:pipe=0,at=1,for=Inf,factor=2",
		"transient:prob=NaN",
		"wear-out:budget=-Inf",
		"transient:pipe=NaN,prob=0.1",
		"transient:pipe=1.5,prob=0.1",
		"transient:pipe=-1,prob=0.1",
	} {
		if _, err := parseFaults(spec); err == nil || !strings.Contains(err.Error(), spec) {
			t.Errorf("parseFaults(%q) = %v, want an error naming the term", spec, err)
		}
	}
	for _, spec := range []string{"hilos:0", "hilos:-2", "hilos:1x-8", "hilos:65536,flex-dram:1"} {
		if _, _, err := parseFleet(spec); err == nil {
			t.Errorf("parseFleet(%q) accepted", spec)
		}
	}
}
