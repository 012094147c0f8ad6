package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseNM(t *testing.T) {
	cases := []struct {
		line string
		code byte
		name string
		ok   bool
	}{
		{"  539cc0 T repro/internal/accel.(*Accelerator).Attention", 'T', "repro/internal/accel.(*Accelerator).Attention", true},
		// A generic instantiation: the name holds spaces and brackets.
		{"  480c20 T repro/internal/sim.(*heap[go.shape.struct { at float64; id int32 }]).push", 'T',
			"repro/internal/sim.(*heap[go.shape.struct { at float64; id int32 }]).push", true},
		{"c000539cc0 t repro/internal/tensor.Dot", 't', "repro/internal/tensor.Dot", true},
		{"         U __errno_location", 'U', "__errno_location", true},
		{"  5c1d40 D runtime.buildVersion", 'D', "runtime.buildVersion", true},
		{"", 0, "", false},
		{"garbage", 0, "", false},
	}
	for _, c := range cases {
		code, name, ok := parseNM(c.line)
		if code != c.code || name != c.name || ok != c.ok {
			t.Errorf("parseNM(%q) = %q, %q, %v; want %q, %q, %v", c.line, code, name, ok, c.code, c.name, c.ok)
		}
	}
}

func TestStripTypeArgs(t *testing.T) {
	cases := map[string]string{
		"repro/internal/tensor.Dot": "repro/internal/tensor.Dot",
		"repro/internal/sim.(*heap[go.shape.struct { at float64; id int32 }]).push": "repro/internal/sim.(*heap).push",
		"repro/internal/stats.Select[go.shape.float64]":                             "repro/internal/stats.Select",
		"repro/x.Map[go.shape.[4]int,go.shape.map[string][]int].func1":              "repro/x.Map.func1",
	}
	for in, want := range cases {
		if got := stripTypeArgs(in); got != want {
			t.Errorf("stripTypeArgs(%q) = %q, want %q", in, got, want)
		}
	}
}

// The declared side names each function as nm does after stripTypeArgs.
func TestSymbol(t *testing.T) {
	src := `package p
func F() {}
func (T) M() {}
func (*T) P() {}
func (h *heap[E]) push(E) {}
func (m Map[K, V]) get(K) V { var v V; return v }
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range f.Decls {
		got = append(got, symbol("repro/p", d.(*ast.FuncDecl)))
	}
	want := "repro/p.F repro/p.T.M repro/p.(*T).P repro/p.(*heap).push repro/p.Map.get"
	if strings.Join(got, " ") != want {
		t.Errorf("symbols %q, want %q", strings.Join(got, " "), want)
	}
}

// A module's root package is declared like any other library package: a
// root function no binary calls is reported.
func TestCheckCoversRootPackage(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":         "module m\n\ngo 1.21\n",
		"m.go":           "package m\n\nfunc Used() int { return 1 }\n\nfunc Unused() int { return 2 }\n",
		"cmd/app/app.go": "package main\n\nimport \"m\"\n\nfunc main() { println(m.Used()) }\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	missing, err := check(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 1 || !strings.HasPrefix(missing[0], "m.Unused (") {
		t.Errorf("missing = %q, want only m.Unused", missing)
	}
}
