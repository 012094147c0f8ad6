package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// SimDeterminism enforces the replay invariant of the simulation packages:
// every figure is a pure function of its inputs, so simulated time must
// never observe the wall clock, process environment or an unseeded entropy
// source, and nothing order-sensitive may be driven by Go's randomized map
// iteration.
//
// Flagged patterns:
//
//   - calls to time.Now / time.Since / time.Until (wall clock);
//   - calls to package-level math/rand functions (the unseeded global
//     source; rand.New(rand.NewSource(seed)) streams are fine);
//   - any use of crypto/rand (hardware entropy);
//   - calls to os.Getenv / os.LookupEnv / os.Environ (environment-dependent
//     behavior in simulation hot paths);
//   - `range` over a map whose body leaks the iteration order: appending to
//     a slice that is not subsequently sorted in the same function, sending
//     on a channel, writing table/CSV/printed output, or accumulating into
//     a floating-point variable declared outside the loop (float addition
//     is not associative, so even a "sum over all values" depends on
//     iteration order in the last bits);
//   - worker-result collection in goroutine completion order: appending a
//     channel receive (`out = append(out, <-ch)`), appending to an outer
//     slice from inside `range` over a channel, or accumulating received
//     floats — the order results arrive depends on the scheduler, so it
//     must never reach a float or an output ordering.
//
// A map-range that appends and then sorts the slice (the collect-sort-walk
// idiom) is deterministic and is not flagged. The sanctioned worker-pool
// shapes likewise pass: index-ordered assembly (`out[i] = f(i)` with one
// owner per slot, as in tensor.ParallelFor callers) and fixed-shape
// reductions over those slots (the accelerator's tree merge), because neither
// lets completion order reach a result.
var SimDeterminism = &analysis.Analyzer{
	Name: "simdeterminism",
	Doc: "forbid wall-clock, entropy, map-iteration-order and goroutine-completion-order leaks in simulation and kernel packages\n\n" +
		"The replay invariant — identical inputs produce bit-identical tables — only\n" +
		"holds if no simulation package reads time.Now, the process environment, the\n" +
		"global math/rand source, iterates a map where order can reach an output, or\n" +
		"collects parallel worker results in completion order (index-ordered slots\n" +
		"plus a fixed-order reduction are the sanctioned shape).",
	Packages: []string{"internal/sim", "internal/cluster", "internal/faults", "internal/experiments", "internal/telemetry", "cmd/hilos-cluster", "internal/attention", "internal/tensor", "internal/accel"},
	Run:      runSimDeterminism,
}

// forbiddenCalls maps qualified function names to the reason they break
// deterministic replay.
var forbiddenCalls = map[string]string{
	"time.Now":     "wall-clock time.Now leaks real time into simulated time",
	"time.Since":   "wall-clock time.Since leaks real time into simulated time",
	"time.Until":   "wall-clock time.Until leaks real time into simulated time",
	"os.Getenv":    "os.Getenv makes simulation output depend on the process environment",
	"os.LookupEnv": "os.LookupEnv makes simulation output depend on the process environment",
	"os.Environ":   "os.Environ makes simulation output depend on the process environment",
}

func runSimDeterminism(pass *analysis.Pass) error {
	info := pass.TypesInfo
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkForbiddenCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, file, n)
				checkChanRange(pass, file, n)
			case *ast.AssignStmt:
				checkRecvAssign(pass, n)
			case *ast.SelectorExpr:
				// Any reference into crypto/rand is an entropy source.
				if obj := info.Uses[n.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "crypto/rand" {
					pass.Reportf(n.Pos(), "crypto/rand is a non-deterministic entropy source; simulations must use a seeded math/rand.Rand")
				}
			}
			return true
		})
	}
	return nil
}

func checkForbiddenCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := funcObj(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	name := qualifiedName(fn)
	if reason, ok := forbiddenCalls[name]; ok {
		pass.Reportf(call.Pos(), "%s; derive it from the simulated clock or configuration instead", reason)
		return
	}
	// Package-level math/rand functions draw from the shared global source,
	// which is unseeded (Go ≥1.20 seeds it randomly at startup) and
	// contended; methods on an explicitly seeded *rand.Rand are fine, as are
	// the source constructors themselves.
	if fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2" {
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil || sig.Recv() != nil {
			return
		}
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return
		}
		pass.Reportf(call.Pos(), "%s.%s uses the global math/rand source; use an explicitly seeded rand.New(rand.NewSource(seed)) stream", fn.Pkg().Name(), fn.Name())
	}
}

// checkMapRange flags statements inside a range-over-map body that let the
// randomized iteration order reach an observable result.
func checkMapRange(pass *analysis.Pass, file *ast.File, rng *ast.RangeStmt) {
	info := pass.TypesInfo
	tv, ok := info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	fn := enclosingFunc(file, rng.Pos())

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside range over map: receivers observe the random iteration order")
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, file, fn, rng, n)
		case *ast.CallExpr:
			checkMapRangeOutput(pass, n)
		}
		return true
	})
}

// checkMapRangeAssign handles the two order-leaking assignment shapes inside
// a map range: append into an outer slice (unless later sorted) and
// floating-point accumulation into an outer variable.
func checkMapRangeAssign(pass *analysis.Pass, file *ast.File, fn *ast.FuncDecl, rng *ast.RangeStmt, as *ast.AssignStmt) {
	info := pass.TypesInfo

	// x op= v accumulation. Integer accumulation commutes exactly; float
	// accumulation does not.
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		lhs := as.Lhs[0]
		if tv, ok := info.Types[lhs]; ok {
			if fl, _ := isFloat(tv.Type); fl && !perKeyUpdate(info, lhs, rng) {
				if obj := rootObj(info, lhs); obj != nil && !declaredWithin(obj, rng) {
					pass.Reportf(as.Pos(), "floating-point accumulation inside range over map depends on iteration order in the last bits; iterate sorted keys instead")
				}
			}
		}
		return
	}

	// dst = append(dst, ...) — the slice records the iteration order unless
	// it is sorted afterwards in the same function.
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isBuiltinAppend(info, call) {
			continue
		}
		var dst ast.Expr
		if i < len(as.Lhs) {
			dst = as.Lhs[i]
		} else if len(as.Lhs) == 1 {
			dst = as.Lhs[0]
		}
		if dst == nil {
			continue
		}
		obj := rootObj(info, dst)
		if obj == nil || declaredWithin(obj, rng) {
			continue
		}
		if fn != nil && sortedAfter(info, fn, obj, rng.End()) {
			continue // collect-then-sort idiom: deterministic
		}
		pass.Reportf(as.Pos(), "append inside range over map records the random iteration order in %s; sort the slice afterwards or iterate sorted keys", obj.Name())
	}
}

// checkChanRange flags statements inside a range-over-channel body that
// record goroutine completion order: appending to an outer slice (results
// arrive in whatever order workers finish) and floating-point accumulation
// into an outer variable. The collect-then-sort escape applies, as does
// index-ordered assembly (`out[i] = v`, an assignment, never reported).
func checkChanRange(pass *analysis.Pass, file *ast.File, rng *ast.RangeStmt) {
	info := pass.TypesInfo
	tv, ok := info.Types[rng.X]
	if !ok {
		return
	}
	if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
		return
	}
	fn := enclosingFunc(file, rng.Pos())

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			lhs := as.Lhs[0]
			if tv, ok := info.Types[lhs]; ok {
				if fl, _ := isFloat(tv.Type); fl && !perKeyUpdate(info, lhs, rng) {
					if obj := rootObj(info, lhs); obj != nil && !declaredWithin(obj, rng) {
						pass.Reportf(as.Pos(), "floating-point accumulation inside range over channel folds worker results in goroutine completion order; write into index-owned slots and reduce in fixed order")
					}
				}
			}
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltinAppend(info, call) {
				continue
			}
			var dst ast.Expr
			if i < len(as.Lhs) {
				dst = as.Lhs[i]
			} else if len(as.Lhs) == 1 {
				dst = as.Lhs[0]
			}
			if dst == nil {
				continue
			}
			obj := rootObj(info, dst)
			if obj == nil || declaredWithin(obj, rng) {
				continue
			}
			if fn != nil && sortedAfter(info, fn, obj, rng.End()) {
				continue
			}
			pass.Reportf(as.Pos(), "append inside range over channel records goroutine completion order in %s; assign into index-owned slots (out[i] = v) or sort afterwards", obj.Name())
		}
		return true
	})
}

// checkRecvAssign flags direct completion-order collection outside channel
// ranges: appending a receive expression (`out = append(out, <-ch)`) and
// floating-point accumulation of a received value (`sum += <-ch`).
func checkRecvAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	info := pass.TypesInfo
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if len(as.Rhs) == 1 && containsRecv(as.Rhs[0]) {
			if tv, ok := info.Types[as.Lhs[0]]; ok {
				if fl, _ := isFloat(tv.Type); fl {
					pass.Reportf(as.Pos(), "floating-point accumulation of a channel receive folds worker results in goroutine completion order; write into index-owned slots and reduce in fixed order")
				}
			}
		}
		return
	}
	for _, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isBuiltinAppend(info, call) {
			continue
		}
		for _, arg := range call.Args[1:] {
			if containsRecv(arg) {
				pass.Reportf(as.Pos(), "append of a channel receive records goroutine completion order; assign into index-owned slots (out[i] = <-ch only if i is the item's own index) or reduce with a fixed-shape tree")
				break
			}
		}
	}
}

// containsRecv reports whether expr contains a channel receive (<-ch).
func containsRecv(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			found = true
		}
		return !found
	})
	return found
}

// checkMapRangeOutput flags calls that write human-readable or serialized
// output from inside a map range: fmt print family, and Write* methods
// (io.Writer implementations, strings.Builder, csv.Writer, ...).
func checkMapRangeOutput(pass *analysis.Pass, call *ast.CallExpr) {
	fn := funcObj(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if fn.Pkg().Path() == "fmt" && sig != nil && sig.Recv() == nil {
		switch fn.Name() {
		case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
			pass.Reportf(call.Pos(), "fmt.%s inside range over map emits rows in random iteration order; sort the keys first", fn.Name())
		}
		return
	}
	if sig != nil && sig.Recv() != nil {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune", "WriteAll":
			pass.Reportf(call.Pos(), "%s.%s inside range over map serializes entries in random iteration order; sort the keys first", recvTypeName(sig), fn.Name())
		}
	}
}

func recvTypeName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// declaredWithin reports whether obj is declared inside the range statement
// (per-iteration locals cannot leak order across iterations).
func declaredWithin(obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()
}

// perKeyUpdate reports whether lhs is an index expression whose index uses
// the range statement's own key or value variable — a per-key update like
// out[k] += v, which commutes across iteration orders.
func perKeyUpdate(info *types.Info, lhs ast.Expr, rng *ast.RangeStmt) bool {
	idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return false
	}
	for _, kv := range []ast.Expr{rng.Key, rng.Value} {
		id, ok := kv.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj != nil && usesObject(info, idx.Index, obj) {
			return true
		}
	}
	return false
}

// sortedAfter reports whether a sort call referencing obj appears after pos
// in the function body — the "collect into a slice, then sort" idiom.
func sortedAfter(info *types.Info, fn *ast.FuncDecl, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		callee := funcObj(info, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		switch callee.Pkg().Path() {
		case "sort":
			switch callee.Name() {
			case "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s":
			default:
				return true
			}
		case "slices":
			switch callee.Name() {
			case "Sort", "SortFunc", "SortStableFunc":
			default:
				return true
			}
		default:
			return true
		}
		for _, arg := range call.Args {
			if usesObject(info, arg, obj) {
				found = true
				break
			}
		}
		return !found
	})
	return found
}
