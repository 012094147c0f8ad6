package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// wantRe extracts expectations from fixture comments: `want "regexp"`.
var wantRe = regexp.MustCompile(`want "([^"]+)"`)

// checkFixture loads testdata/src/<dir>, runs the analyzer over it (force
// bypasses the analyzer's package scoping, since fixture import paths contain
// "testdata"), and matches the surviving diagnostics against the fixture's
// `// want "regexp"` comments: every want must be matched by a diagnostic on
// its line, and every diagnostic must be claimed by a want.
func checkFixture(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	res, err := load.Load(".", "./testdata/src/"+dir)
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	if len(res.Packages) != 1 {
		t.Fatalf("fixture %s loaded %d packages, want 1", dir, len(res.Packages))
	}
	diags, err := Run(res, []*analysis.Analyzer{a}, true)
	if err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, dir, err)
	}

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, f := range res.Packages[0].Files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", res.Fset.Position(c.Pos()), m[1], err)
					}
					p := res.Fset.Position(c.Pos())
					wants[key{p.Filename, p.Line}] = append(wants[key{p.Filename, p.Line}], re)
				}
			}
		}
	}

	for _, d := range diags {
		p := res.Fset.Position(d.Pos)
		k := key{p.Filename, p.Line}
		matched := -1
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("%s: unexpected %s diagnostic: %s", p, d.Rule, d.Message)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
	}
	var missed []string
	for k, res := range wants {
		for _, re := range res {
			missed = append(missed, fmt.Sprintf("%s:%d: no diagnostic matching %q", k.file, k.line, re))
		}
	}
	sort.Strings(missed)
	for _, m := range missed {
		t.Error(m)
	}
}

func TestSimDeterminismFixture(t *testing.T) { checkFixture(t, SimDeterminism, "simdet") }

// TestWorkerPoolFixture pins the completion-order checks: collect-as-they-
// finish shapes are flagged, the sanctioned index-ordered-assembly and
// fixed-tree-reduction shapes lint clean with no //lint:allow.
func TestWorkerPoolFixture(t *testing.T) { checkFixture(t, SimDeterminism, "workerpool") }
func TestFloatAccumFixture(t *testing.T) { checkFixture(t, FloatAccum, "floataccum") }
func TestGuardedByFixture(t *testing.T)  { checkFixture(t, GuardedBy, "guardedby") }
func TestHeapSafeFixture(t *testing.T)   { checkFixture(t, HeapSafe, "heapsafe") }

// TestHeapSafeGuardsSimNodes checks the rule on the real scheduler rather
// than a fixture: internal/sim keeps its ready heaps as task ids into an
// arena of nodes, and a write to a node's ready time outside the heap file
// must still be reported. The mutation is injected as an extra file,
// type-checked into the loaded package.
func TestHeapSafeGuardsSimNodes(t *testing.T) {
	res, err := load.Load("../..", "./internal/sim")
	if err != nil {
		t.Fatalf("load internal/sim: %v", err)
	}
	pkg := res.Packages[0]
	const src = `package sim

func retime(n *node, at Time) {
	n.ready = at
}
`
	f, err := parser.ParseFile(res.Fset, filepath.Join(pkg.Dir, "injected.go"), src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	if err := types.NewChecker(&types.Config{}, res.Fset, pkg.Types, pkg.TypesInfo).Files([]*ast.File{f}); err != nil {
		t.Fatalf("type-check injected file: %v", err)
	}
	pkg.Files = append(pkg.Files, f)
	diags, err := Run(res, []*analysis.Analyzer{HeapSafe}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.HasSuffix(res.Fset.Position(diags[0].Pos).Filename, "injected.go") ||
		!strings.Contains(diags[0].Message, "field ready mutated") {
		for _, d := range diags {
			t.Logf("%s: %s", res.Fset.Position(d.Pos), d.Message)
		}
		t.Fatalf("got %d diagnostics, want one for the injected node.ready write", len(diags))
	}
}

// TestPackageScopeSuppression checks that a //lint:allow in the package doc
// silences the whole package: the fixture contains violations but no wants.
func TestPackageScopeSuppression(t *testing.T) { checkFixture(t, SimDeterminism, "simdetallow") }

// TestAnalyzersOnRepo runs the full suite over the repository the same way
// cmd/hilos-lint does in CI and requires a clean bill: every deliberate
// exception must carry its //lint:allow annotation.
func TestAnalyzersOnRepo(t *testing.T) {
	res, err := load.Load("../..", "./...")
	if err != nil {
		t.Fatalf("load ./...: %v", err)
	}
	diags, err := Run(res, Analyzers(), false)
	if err != nil {
		t.Fatalf("run suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s: %s", res.Fset.Position(d.Pos), d.Rule, d.Message)
	}
}

// TestByName pins the driver's rule-name lookup.
func TestByName(t *testing.T) {
	for _, a := range Analyzers() {
		got, ok := ByName(a.Name)
		if !ok || got != a {
			t.Errorf("ByName(%q) = %v, %v", a.Name, got, ok)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) unexpectedly found an analyzer")
	}
}

// TestScoping pins the package scoping used when force is off: fixture
// paths under testdata must not leak into a ./... run's analyzer scopes.
func TestScoping(t *testing.T) {
	if SimDeterminism.AppliesTo("repro/internal/sim") != true {
		t.Error("simdeterminism must apply to internal/sim")
	}
	// The parallel kernels joined the scope in PR 8: their worker-pool
	// dataflow must satisfy the completion-order rules directly.
	if !SimDeterminism.AppliesTo("repro/internal/attention") {
		t.Error("simdeterminism must apply to internal/attention")
	}
	if !SimDeterminism.AppliesTo("repro/internal/tensor") {
		t.Error("simdeterminism must apply to internal/tensor")
	}
	if SimDeterminism.AppliesTo("repro/internal/fp16") {
		t.Error("simdeterminism must not apply to internal/fp16")
	}
	if !strings.Contains(FloatAccum.Doc, "float32") {
		t.Error("floataccum doc should explain the float32 rule")
	}
}
