// The determinism family: every property the byte-identical goldens,
// worker-count independence and cache-key tests rely on reduces to "a
// cell result is a pure function of its seed". Four checks guard the
// ways that purity gets broken in practice:
//
//   - wallclock: any use of time.Now / Since / Sleep / After and friends
//     ties behaviour to the host clock. Simulated code reads the simenv
//     clock; infrastructure that legitimately needs real time (pacing
//     on the distrib wire) carries a justified allow.
//   - globalrand: an import of math/rand or math/rand/v2 brings in a
//     stream whose draws depend on call order (the global one) or on
//     state threaded through the model (a constructed one), so adding a
//     draw anywhere perturbs every later one. Everything stochastic is
//     derived from simenv.HashNoise, a pure function of the seed and a
//     name, instead.
//   - goroutine: a go statement breaks the single simulation goroutine;
//     only the sweep/distrib worker pools may launch them, each under an
//     explicit allow.
//   - maprange: Go map iteration order is deliberately random. Ranging
//     over a map is fine for commutative folds (counters, set inserts,
//     min/max), but appending to a slice, writing output, folding
//     floats/strings, or calling through a function value (a callback
//     whose effects the check cannot see) leaks the order into observable
//     state unless the collected keys are sorted afterwards in the same
//     function.
package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// wallclockFuncs are the time package functions that read or schedule
// against the host clock. Conversions and constructors (Date, Unix,
// ParseDuration, ...) are pure and stay legal.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

func (a *analysis) checkDeterminism(pd *pkgData) {
	for _, file := range pd.files {
		for _, imp := range file.Imports {
			if path := imp.Path.Value; path == `"math/rand"` || path == `"math/rand/v2"` {
				a.reportf(a.fset.Position(imp.Pos()), checkGlobalrand,
					"import of %s draws outside the seed; derive randomness from simenv.HashNoise", path)
			}
		}
		// Pre-collect every function body so a map range can find its
		// innermost enclosing function by position containment (that
		// bounds the search for a later sort of collected keys).
		var bodies []*ast.BlockStmt
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					bodies = append(bodies, n.Body)
				}
			case *ast.FuncLit:
				bodies = append(bodies, n.Body)
			}
			return true
		})
		enclosing := func(pos token.Pos) *ast.BlockStmt {
			var best *ast.BlockStmt
			for _, b := range bodies {
				if b.Pos() <= pos && pos < b.End() &&
					(best == nil || b.Pos() > best.Pos()) {
					best = b
				}
			}
			return best
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				a.checkWallclockRef(pd, n)
			case *ast.GoStmt:
				a.report(a.fset.Position(n.Pos()), checkGoroutine,
					"go statement escapes the single simulation goroutine "+
						"(worker pools need //glacvet:allow goroutine <reason>)")
			case *ast.RangeStmt:
				a.checkMapRange(pd, n, enclosing(n.Pos()))
			}
			return true
		})
	}
}

// checkWallclockRef flags references (calls or value uses — nowFn:
// time.Now counts) to wall-clock time functions.
func (a *analysis) checkWallclockRef(pd *pkgData, sel *ast.SelectorExpr) {
	fn, ok := pd.info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallclockFuncs[fn.Name()] {
		return
	}
	if fn.Signature().Recv() != nil {
		return // methods (time.Time.Sub, ...) are fine
	}
	a.reportf(a.fset.Position(sel.Pos()), checkWallclock,
		"time.%s reads the wall clock; simulated code must derive time from the simenv clock",
		fn.Name())
}

// checkMapRange flags order-sensitive map iteration. encl is the body of
// the innermost function containing the range statement.
func (a *analysis) checkMapRange(pd *pkgData, rng *ast.RangeStmt, encl *ast.BlockStmt) {
	tv, ok := pd.info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	// Scan the body for order-sensitive effects.
	var appendTargets []*types.Var // slices collected during iteration, in order
	appendPos := map[*types.Var]token.Pos{}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				if _, isBuiltin := pd.info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "append" && len(n.Args) > 0 {
					if v := localVarOf(pd, n.Args[0]); v != nil && v.Pos() < rng.Pos() {
						if _, seen := appendPos[v]; !seen {
							appendTargets = append(appendTargets, v)
							appendPos[v] = n.Pos()
						}
					}
					return true
				}
			}
			if name, ok := outputCall(pd, n); ok {
				a.reportf(a.fset.Position(n.Pos()), checkMaprange,
					"%s writes output while iterating a map; iteration order leaks into the stream (sort keys first)",
					name)
			}
			if name, ok := funcValueCall(pd, n); ok {
				a.reportf(a.fset.Position(n.Pos()), checkMaprange,
					"call through function value %s while iterating a map runs its callbacks in iteration order (sort keys first)",
					name)
			}
		case *ast.AssignStmt:
			a.checkMapRangeFold(pd, rng, n)
		}
		return true
	})
	// Collected slices are fine if every one of them is sorted after the
	// loop in the same function — the collect-keys-then-sort idiom.
	for _, v := range appendTargets {
		if encl != nil && sortedAfter(pd, encl, v, rng.End()) {
			continue
		}
		a.reportf(a.fset.Position(appendPos[v]), checkMaprange,
			"appending to %q while iterating a map records the iteration order; sort %s after the loop or collect deterministically",
			v.Name(), v.Name())
	}
}

// checkMapRangeFold flags non-commutative folds in a map-range body:
// string concatenation and floating-point accumulation both make the
// result depend on iteration order (float rounding is order-sensitive,
// which is exactly the kind of drift byte-identical goldens catch late).
func (a *analysis) checkMapRangeFold(pd *pkgData, rng *ast.RangeStmt, as *ast.AssignStmt) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return
	}
	if len(as.Lhs) != 1 {
		return
	}
	v := localVarOf(pd, as.Lhs[0])
	if v == nil || v.Pos() >= rng.Pos() {
		return // folding into a loop-local is per-iteration state
	}
	basic, ok := v.Type().Underlying().(*types.Basic)
	if !ok {
		return
	}
	pos := a.fset.Position(as.Pos())
	switch {
	case basic.Info()&types.IsString != 0 && as.Tok == token.ADD_ASSIGN:
		a.reportf(pos, checkMaprange,
			"string concatenation onto %q inside map iteration depends on iteration order; sort keys first",
			v.Name())
	case basic.Info()&types.IsFloat != 0:
		a.reportf(pos, checkMaprange,
			"floating-point fold into %q inside map iteration is rounding-order sensitive; sort keys first",
			v.Name())
	}
}

// localVarOf resolves an expression to the non-field variable it names,
// or nil (selector bases like s.queue and index expressions return nil —
// the checks above only reason about plain local/package variables).
func localVarOf(pd *pkgData, e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pd.info.Uses[id]
	if obj == nil {
		obj = pd.info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	return v
}

// outputCall recognizes calls that emit bytes somewhere order matters: the
// fmt print family and Write/WriteString/WriteByte/WriteRune methods.
func outputCall(pd *pkgData, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pd.info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	if sig.Recv() == nil {
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			switch fn.Name() {
			case "Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println":
				return "fmt." + fn.Name(), true
			}
		}
		return "", false
	}
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		return fn.Name(), true
	}
	return "", false
}

// funcValueCall recognizes calls through a func-typed variable, struct
// field or indexed element (fn(x), h.onDone(x), subs[i](x)): the callee is
// a value chosen at run time, so the check cannot see what it does.
// Declared functions, methods, builtins, conversions and immediately
// invoked literals are not function values.
func funcValueCall(pd *pkgData, call *ast.CallExpr) (string, bool) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := pd.info.Types[fun]; ok && tv.IsType() {
		return "", false // a conversion
	}
	switch f := fun.(type) {
	case *ast.Ident:
		if v, ok := pd.info.Uses[f].(*types.Var); ok {
			return fmt.Sprintf("%q", v.Name()), true
		}
	case *ast.SelectorExpr:
		if sel := pd.info.Selections[f]; sel != nil && sel.Kind() == types.FieldVal {
			return fmt.Sprintf("field %q", f.Sel.Name), true
		}
		if _, ok := pd.info.Uses[f.Sel].(*types.Var); ok {
			return fmt.Sprintf("%q", f.Sel.Name), true // a package-level func variable
		}
	case *ast.IndexExpr:
		// f[T] instantiates a generic function; only an element of a
		// slice, array or map of funcs is a function value.
		if _, generic := pd.info.TypeOf(f.X).Underlying().(*types.Signature); !generic {
			return "element", true
		}
	}
	return "", false
}

// sortedAfter reports whether v is passed to a sort call (sort.Strings,
// sort.Slice, slices.Sort, ...) lexically after pos inside body.
func sortedAfter(pd *pkgData, body *ast.BlockStmt, v *types.Var, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pd.info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort":
			switch fn.Name() {
			case "Strings", "Ints", "Float64s", "Sort", "Stable", "Slice", "SliceStable":
			default:
				return true
			}
		case "slices":
			switch fn.Name() {
			case "Sort", "SortFunc", "SortStableFunc":
			default:
				return true
			}
		default:
			return true
		}
		if localVarOf(pd, call.Args[0]) == v {
			found = true
		}
		return true
	})
	return found
}
