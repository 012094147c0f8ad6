package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// HeapSafe protects the ordering invariant of internal/sim's
// min-heaps and internal/cluster's event heap: once an item sits in a heap,
// the fields its comparison functions read (node.ready, a queue's free time
// and heaps, the candidate keys; event.at, kind, q and seq) must only
// change on the heap's own maintenance paths — otherwise the heap silently
// stops being a heap and the scheduler's earliest-start policy (or the
// cluster's event order) decays into an arbitrary one.
//
// The analyzer discovers the ordering fields from the package itself: every
// field a comparison function (name starting with "less", or the candidate
// provider "best") selects from its parameters or receiver is
// order-bearing. Mutations are then allowed in two places only:
//
//   - functions declared in the same file as the comparison functions (the
//     heap implementation file, e.g. heap.go), and
//   - elsewhere, assignments that are re-heapified afterwards in the same
//     function — a later call to fix/push/pop/enqueue (any case).
//
// Everything else is reported. Code that deliberately mutates a key outside
// those paths documents that with //lint:allow heapsafe <reason>.
var HeapSafe = &analysis.Analyzer{
	Name: "heapsafe",
	Doc: "forbid mutating heap-ordering fields outside the heap's Fix/Push/Pop paths\n\n" +
		"Mutating a key field of an item inside an indexed min-heap without\n" +
		"re-heapifying breaks the heap invariant silently; the scheduler then runs\n" +
		"tasks in a wrong but plausible order.",
	Packages: []string{"internal/sim", "internal/cluster"},
	Run:      runHeapSafe,
}

// reheapNames are callee names that restore the heap invariant after a key
// mutation.
var reheapNames = map[string]bool{
	"fix": true, "push": true, "pop": true, "enqueue": true,
	"Fix": true, "Push": true, "Pop": true, "Enqueue": true,
}

func runHeapSafe(pass *analysis.Pass) error {
	fields, implFiles := orderingFields(pass)
	if len(fields) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		fname := pass.Fset.Position(file.Pos()).Filename
		if implFiles[fname] {
			continue // the heap implementation file maintains its own invariant
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkHeapMutations(pass, fd, fields)
		}
	}
	return nil
}

// orderingFields returns the set of field objects read by the package's
// comparison functions, plus the files those functions are declared in.
func orderingFields(pass *analysis.Pass) (map[types.Object]bool, map[string]bool) {
	info := pass.TypesInfo
	fields := map[types.Object]bool{}
	implFiles := map[string]bool{}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			if !strings.HasPrefix(strings.ToLower(name), "less") && name != "best" {
				continue
			}
			implFiles[pass.Fset.Position(file.Pos()).Filename] = true
			// Parameters and receiver are the compared items.
			params := map[types.Object]bool{}
			if fd.Recv != nil {
				for _, f := range fd.Recv.List {
					for _, n := range f.Names {
						params[info.Defs[n]] = true
					}
				}
			}
			if fd.Type.Params != nil {
				for _, f := range fd.Type.Params.List {
					for _, n := range f.Names {
						params[info.Defs[n]] = true
					}
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				base, ok := ast.Unparen(sel.X).(*ast.Ident)
				if !ok || !params[info.Uses[base]] {
					return true
				}
				if obj := info.Uses[sel.Sel]; obj != nil {
					if v, isVar := obj.(*types.Var); isVar && v.IsField() {
						fields[obj] = true
					}
				}
				return true
			})
		}
	}
	return fields, implFiles
}

func checkHeapMutations(pass *analysis.Pass, fd *ast.FuncDecl, fields map[types.Object]bool) {
	info := pass.TypesInfo
	type mutation struct {
		pos  token.Pos
		name string
	}
	var muts []mutation
	record := func(lhs ast.Expr, pos token.Pos) {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok {
			return
		}
		obj := info.Uses[sel.Sel]
		if obj == nil || !fields[obj] {
			return
		}
		muts = append(muts, mutation{pos: pos, name: obj.Name()})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				record(lhs, n.Pos())
			}
		case *ast.IncDecStmt:
			record(n.X, n.Pos())
		}
		return true
	})
	if len(muts) == 0 {
		return
	}
	// A later re-heapify call in the same function legitimizes every
	// mutation before it (the enqueue/fix pattern Run uses).
	var lastReheap token.Pos = token.NoPos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		if reheapNames[name] && call.Pos() > lastReheap {
			lastReheap = call.Pos()
		}
		return true
	})
	for _, m := range muts {
		if lastReheap != token.NoPos && m.pos < lastReheap {
			continue
		}
		pass.Reportf(m.pos, "heap-ordering field %s mutated outside the heap's Fix/Push/Pop paths; re-heapify after the write or move the mutation into the heap implementation", m.name)
	}
}
