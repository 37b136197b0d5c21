// Package hotpathalloc defines an analyzer that flags allocation sources
// inside functions marked //oram:hotpath.
//
// PR 5 drove the steady-state access loop from 145 to 2 allocs/op, and the
// AllocsPerRun gates in hotpath_test.go keep the budget from regressing —
// but a failed gate says only "budget exceeded", not where. This analyzer
// turns the budget into line-level findings: every construct that can
// allocate inside a marked function is either justified with an
// //oramlint:allow (amortized scratch growth, free-list misses) or flagged.
//
// Error paths are excluded: a block that ends by returning a non-nil error
// never runs in steady state, so its fmt.Errorf boxing and composite
// literals are free.
//
// The discipline is closed over the module call graph: a helper that a
// marked function calls (directly, or through an interface resolved to its
// declared implementer set) runs on the hot path whether or not its own
// doc carries the directive, so it inherits the same checks, with the
// reachability chain named in the finding. //oram:offhotpath on a
// function's doc opts it (and everything only reachable through it) out,
// for paths like the remote memory transport whose per-op cost is
// RTT-bound by design.
package hotpathalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"freecursive/internal/lint/analysis"
	"freecursive/internal/lint/directive"
	"freecursive/internal/lint/interproc"
)

// Analyzer flags potential allocations in //oram:hotpath functions and in
// every function warm-reachable from one on the module call graph.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc: `flag allocation sources on the //oram:hotpath call-graph closure

Inside a function whose doc comment carries //oram:hotpath — and inside
every function warm-reachable from one over the module call graph, with
interface calls resolved to their declared implementer sets — the analyzer
flags: make and new calls; pointer, slice, and map composite literals;
[]byte/string conversions; append calls that are not the amortized
self-append idiom (x = append(x, ...)); implicit boxing of non-pointer
values into interfaces; and capturing closures. Blocks that end by
returning a non-nil error are cold paths and are skipped, and hotness does
not propagate through them. //oram:offhotpath exempts a function and its
exclusive callees (RTT-bound transports); justified allocations carry
//oramlint:allow hotpathalloc with a reason.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	var facts *interproc.Facts
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if directive.IsHotpath(fn) {
				check(pass, fn)
				continue
			}
			if directive.IsOffHotpath(fn) {
				continue
			}
			// Closure: unmarked but warm-reachable from a marked root.
			if facts == nil {
				facts = interproc.FactsFor(pass)
			}
			obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			sym := interproc.Symbol(obj)
			info, hot := facts.Hot[sym]
			if !hot || info.From == "" {
				continue
			}
			note := fmt.Sprintf(" [on the hot path: reachable from //oram:hotpath root %s via %s]",
				interproc.ShortSym(info.Root), facts.Chain(sym))
			sub := *pass
			sub.Report = func(d analysis.Diagnostic) {
				d.Message += note
				pass.Report(d)
			}
			check(&sub, fn)
		}
	}
	return nil
}

func check(pass *analysis.Pass, fn *ast.FuncDecl) {
	// Collect expressions used in call position, so method *values* (which
	// allocate a bound-method closure) can be told apart from method calls,
	// and map append calls to their assignment target so the amortized
	// self-append idiom can be recognized.
	called := map[ast.Expr]bool{}
	appendTarget := map[*ast.CallExpr]ast.Expr{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			called[n.Fun] = true
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				if call, ok := rhs.(*ast.CallExpr); ok {
					appendTarget[call] = n.Lhs[i]
				}
			}
		}
		return true
	})

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			// Skip cold arms (blocks that end returning a non-nil error),
			// but keep walking Init/Cond and warm arms.
			if n.Init != nil {
				ast.Inspect(n.Init, walk)
			}
			ast.Inspect(n.Cond, walk)
			if !isColdStmts(pass, n.Body.List) {
				ast.Inspect(n.Body, walk)
			}
			if n.Else != nil {
				if blk, ok := n.Else.(*ast.BlockStmt); !ok || !isColdStmts(pass, blk.List) {
					ast.Inspect(n.Else, walk)
				}
			}
			return false
		case *ast.SwitchStmt:
			// Same cold-arm rule for switch cases (e.g. a default arm that
			// rejects an unknown request kind with an error).
			if n.Init != nil {
				ast.Inspect(n.Init, walk)
			}
			if n.Tag != nil {
				ast.Inspect(n.Tag, walk)
			}
			for _, stmt := range n.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, e := range cc.List {
					ast.Inspect(e, walk)
				}
				if !isColdStmts(pass, cc.Body) {
					for _, s := range cc.Body {
						ast.Inspect(s, walk)
					}
				}
			}
			return false
		case *ast.CallExpr:
			checkCall(pass, n, appendTarget)
		case *ast.CompositeLit:
			// Value struct literals don't allocate; composite literals of
			// reference kinds (slices, maps) and address-taken literals do —
			// the latter is caught at the UnaryExpr below.
			t := pass.TypesInfo.TypeOf(n)
			if t == nil {
				break
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal allocates on the hot path")
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal allocates on the hot path")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&composite literal escapes to the heap on the hot path")
				}
			}
		case *ast.FuncLit:
			if captures(pass, n) {
				pass.Reportf(n.Pos(), "capturing closure may allocate per call on the hot path (non-escaping closures are stack-allocated; justify with //oramlint:allow if pinned by an alloc gate)")
			}
			return false // don't double-report the closure's own body
		case *ast.SelectorExpr:
			if !called[n] {
				if sel, ok := pass.TypesInfo.Selections[n]; ok && sel.Kind() == types.MethodVal {
					pass.Reportf(n.Pos(), "method value allocates a bound-method closure on the hot path")
				}
			}
		}
		// Interface boxing in assignments and returns.
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) {
					checkBox(pass, pass.TypesInfo.TypeOf(n.Lhs[i]), rhs)
				}
			}
		}
		return true
	}
	ast.Inspect(fn.Body, walk)
}

// checkCall flags make/new, allocating conversions, non-self appends, and
// interface boxing of call arguments.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, appendTarget map[*ast.CallExpr]ast.Expr) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); isBuiltin {
			switch fun.Name {
			case "make":
				pass.Reportf(call.Pos(), "make allocates on the hot path")
			case "new":
				pass.Reportf(call.Pos(), "new allocates on the hot path")
			case "append":
				checkAppend(pass, call, appendTarget)
			}
			return
		}
	}
	// Conversions: []byte(s), string(b), []rune(s) allocate and copy.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type.Underlying()
		from := pass.TypesInfo.TypeOf(call.Args[0])
		if from != nil {
			switch to.(type) {
			case *types.Slice:
				if isString(from) {
					pass.Reportf(call.Pos(), "string-to-slice conversion allocates on the hot path")
				}
			case *types.Basic:
				if isString(tv.Type) && !isString(from) {
					pass.Reportf(call.Pos(), "slice-to-string conversion allocates on the hot path")
				}
			}
		}
		return
	}
	// Boxing of arguments into interface parameters.
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // s... passes the slice through, no boxing
			}
			param = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		}
		checkBox(pass, param, arg)
	}
}

// checkAppend flags appends that are not the amortized self-append idiom
// `x = append(x, ...)`: appending into a fresh or foreign slice is a
// per-call growth source, while self-append amortizes to zero once scratch
// reaches steady-state size.
func checkAppend(pass *analysis.Pass, call *ast.CallExpr, appendTarget map[*ast.CallExpr]ast.Expr) {
	if len(call.Args) == 0 {
		return
	}
	if asg, ok := appendTarget[call]; ok {
		if types.ExprString(asg) == baseExpr(call.Args[0]) {
			return // x = append(x[...], ...) — amortized, allowed
		}
	}
	pass.Reportf(call.Pos(), "append outside the x = append(x, ...) self-append idiom can grow per call on the hot path")
}

// baseExpr renders the base expression of arg, looking through slicing:
// p.buf[:0] → p.buf.
func baseExpr(e ast.Expr) string {
	for {
		if s, ok := e.(*ast.SliceExpr); ok {
			e = s.X
			continue
		}
		return types.ExprString(e)
	}
}

// checkBox flags implicit conversion of a non-pointer concrete value into an
// interface, which heap-allocates the boxed copy.
func checkBox(pass *analysis.Pass, to types.Type, arg ast.Expr) {
	if to == nil {
		return
	}
	if _, isIface := to.Underlying().(*types.Interface); !isIface {
		return
	}
	tv, ok := pass.TypesInfo.Types[arg]
	if !ok || tv.Type == nil || tv.IsNil() || tv.Value != nil {
		return // nil or constant: no runtime boxing cost worth flagging
	}
	from := tv.Type
	if _, isIface := from.Underlying().(*types.Interface); isIface {
		return
	}
	switch from.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // pointer-shaped: boxed without allocation
	}
	pass.Reportf(arg.Pos(), "boxing %s into interface %s allocates on the hot path", from, to)
}

// isColdStmts reports whether a statement list ends by returning a non-nil
// error-typed last result (or panicking): the shape of a fault arm that
// never runs in steady state.
func isColdStmts(pass *analysis.Pass, list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		if len(last.Results) == 0 {
			return false
		}
		final := last.Results[len(last.Results)-1]
		t := pass.TypesInfo.TypeOf(final)
		if t == nil || !isErrorType(t) {
			return false
		}
		if tv, ok := pass.TypesInfo.Types[final]; ok && tv.IsNil() {
			return false
		}
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// captures reports whether the func literal references identifiers declared
// outside its own body (free variables), which forces a closure object.
func captures(pass *analysis.Pass, fl *ast.FuncLit) bool {
	declared := map[types.Object]bool{}
	ast.Inspect(fl, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				declared[obj] = true
			}
		}
		return true
	})
	found := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || declared[obj] {
			return true
		}
		// A used variable not declared in the literal: captured, unless
		// it's a package-level var (those need no closure cell).
		if obj.Parent() != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return true
		}
		found = true
		return false
	})
	return found
}
