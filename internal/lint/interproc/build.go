package interproc

import (
	"go/ast"
	"go/types"
	"sort"

	"freecursive/internal/lint/analysis"
	"freecursive/internal/lint/directive"
)

// fnNode is one declared function body in the module.
type fnNode struct {
	unit *analysis.Unit
	decl *ast.FuncDecl
	sym  string

	// callees are the outgoing call-graph edges, deduplicated, split by
	// whether the call site sits inside a cold (error-return) arm. Hot-path
	// closure follows only warm edges; taint summaries use both (an error
	// arm still leaks what it formats).
	warm map[string]bool
	all  map[string]bool
}

type builder struct {
	units []*analysis.Unit
	fns   map[string]*fnNode
	// ifaceMethods maps an interface method symbol to the symbols of the
	// corresponding methods on every declared implementer in the module.
	ifaceMethods map[string][]string
}

func newBuilder(units []*analysis.Unit) *builder {
	return &builder{
		units:        units,
		fns:          map[string]*fnNode{},
		ifaceMethods: map[string][]string{},
	}
}

func (b *builder) build() *Facts {
	b.indexFuncs()
	b.resolveInterfaces()
	b.collectEdges()

	facts := &Facts{Summaries: map[string]*Summary{}, Hot: map[string]HotInfo{}}
	b.summarize(facts)
	b.hotClosure(facts)
	return facts
}

func (b *builder) indexFuncs() {
	for _, u := range b.units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := u.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				sym := Symbol(obj)
				b.fns[sym] = &fnNode{
					unit: u, decl: fd, sym: sym,
					warm: map[string]bool{}, all: map[string]bool{},
				}
			}
		}
	}
}

// resolveInterfaces computes, for every interface type declared in the
// module, the set of module-declared concrete methods that implement each
// of its methods. This is what lets the hot-path closure and the taint
// summaries see through mem.PathReader-style indirection: the loader
// already knows every declared implementer, so a call through the
// interface joins over exactly that set.
func (b *builder) resolveInterfaces() {
	type namedIface struct {
		iface *types.Interface
		obj   *types.TypeName
	}
	var ifaces []namedIface
	var concrete []types.Type
	for _, u := range b.units {
		scope := u.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t := tn.Type()
			if it, ok := t.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, namedIface{iface: it, obj: tn})
				continue
			}
			concrete = append(concrete, t, types.NewPointer(t))
		}
	}
	for _, ni := range ifaces {
		for i := 0; i < ni.iface.NumMethods(); i++ {
			m := ni.iface.Method(i)
			key := Symbol(m)
			for _, ct := range concrete {
				if !types.Implements(ct, ni.iface) {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(ct, true, m.Pkg(), m.Name())
				impl, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				isym := Symbol(impl)
				if _, declared := b.fns[isym]; declared {
					b.ifaceMethods[key] = append(b.ifaceMethods[key], isym)
				}
			}
		}
	}
}

// collectEdges walks every function body recording its callees, tracking
// whether each call site is inside a cold (error-returning) arm.
func (b *builder) collectEdges() {
	for _, n := range b.fns {
		n := n
		walkWarmth(n.unit.TypesInfo, n.decl.Body, false, func(node ast.Node, cold bool) {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return
			}
			sym := b.calleeSymbol(n.unit, call)
			if sym == "" {
				return
			}
			n.all[sym] = true
			if !cold {
				n.warm[sym] = true
			}
		})
	}
}

// calleeSymbol resolves a call expression to a callee symbol: a declared
// function, a method (interface methods resolve to the interface method
// symbol, which the graph joins over implementers), or "" for func values
// and builtins.
func (b *builder) calleeSymbol(u *analysis.Unit, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := u.TypesInfo.Uses[fun].(*types.Func); ok {
			return Symbol(fn)
		}
	case *ast.SelectorExpr:
		if fn, ok := u.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return Symbol(fn)
		}
	}
	return ""
}

// walkWarmth visits every node under stmts, reporting along with each node
// whether it sits inside a cold arm: an if/switch arm whose statement list
// ends by returning a non-nil error or panicking. The hot path never
// executes cold arms in steady state, so hotness does not propagate
// through them; taint does (callers pass cold=false consumers that want
// both kinds of edge use the all map).
func walkWarmth(info *types.Info, body ast.Node, cold bool, visit func(n ast.Node, cold bool)) {
	var walk func(n ast.Node, cold bool) bool
	walk = func(n ast.Node, cold bool) bool {
		if n == nil {
			return false
		}
		visit(n, cold)
		switch n := n.(type) {
		case *ast.IfStmt:
			if n.Init != nil {
				inspectWith(n.Init, cold, walk)
			}
			inspectWith(n.Cond, cold, walk)
			inspectWith(n.Body, cold || ColdStmts(info, n.Body.List), walk)
			if n.Else != nil {
				elseCold := cold
				if blk, ok := n.Else.(*ast.BlockStmt); ok && ColdStmts(info, blk.List) {
					elseCold = true
				}
				inspectWith(n.Else, elseCold, walk)
			}
			return false
		case *ast.SwitchStmt:
			if n.Init != nil {
				inspectWith(n.Init, cold, walk)
			}
			if n.Tag != nil {
				inspectWith(n.Tag, cold, walk)
			}
			for _, stmt := range n.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, e := range cc.List {
					inspectWith(e, cold, walk)
				}
				armCold := cold || ColdStmts(info, cc.Body)
				for _, s := range cc.Body {
					inspectWith(s, armCold, walk)
				}
			}
			return false
		}
		return true
	}
	inspectWith(body, cold, walk)
}

// inspectWith adapts ast.Inspect to carry the cold flag: when walk returns
// false it has descended manually.
func inspectWith(n ast.Node, cold bool, walk func(ast.Node, bool) bool) {
	ast.Inspect(n, func(child ast.Node) bool {
		if child == nil {
			return false
		}
		return walk(child, cold)
	})
}

// ColdStmts reports whether a statement list ends by returning a non-nil
// error-typed last result or panicking: the shape of a fault arm that
// never runs in steady state. Shared by the hotpathalloc analyzer and the
// call-graph builder so "cold" means the same thing in both.
func ColdStmts(info *types.Info, list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		if len(last.Results) == 0 {
			return false
		}
		final := last.Results[len(last.Results)-1]
		t := info.TypeOf(final)
		if t == nil || !types.Identical(t, types.Universe.Lookup("error").Type()) {
			return false
		}
		if tv, ok := info.Types[final]; ok && tv.IsNil() {
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

// summarize computes taint summaries to a fixpoint over the SCC
// condensation of the call graph: callees first, and members of a cycle
// iterated until their summaries stop changing. Interface methods are
// synthetic nodes whose summary is the join of their implementers'.
func (b *builder) summarize(facts *Facts) {
	// Node set: declared functions plus interface-method join nodes.
	edges := map[string][]string{}
	for sym, n := range b.fns {
		for callee := range n.all {
			edges[sym] = append(edges[sym], callee)
		}
	}
	for isym, impls := range b.ifaceMethods {
		edges[isym] = append(edges[isym], impls...)
	}
	nodes := make([]string, 0, len(b.fns)+len(b.ifaceMethods))
	for _, sym := range sortedSyms(b.fns) {
		nodes = append(nodes, sym)
	}
	for _, sym := range sortedSyms(b.ifaceMethods) {
		nodes = append(nodes, sym)
	}
	for sym := range edges {
		sort.Strings(edges[sym])
	}

	sccs := tarjan(nodes, edges)
	resolver := func(sym string) (*Summary, bool) {
		s, ok := facts.Summaries[sym]
		return s, ok
	}
	for _, scc := range sccs {
		for changed := true; changed; {
			changed = false
			for _, sym := range scc {
				var next *Summary
				if n, ok := b.fns[sym]; ok {
					next = analyzeFn(n.unit, n.decl, resolver).Summary
				} else {
					next = joinImpls(b.ifaceMethods[sym], facts.Summaries)
				}
				if !summaryEqual(facts.Summaries[sym], next) {
					facts.Summaries[sym] = next
					changed = true
				}
			}
		}
	}
}

func joinImpls(impls []string, summaries map[string]*Summary) *Summary {
	out := &Summary{}
	for _, isym := range impls {
		s := summaries[isym]
		if s == nil {
			continue
		}
		if len(out.ParamNames) == 0 {
			out.ParamNames = s.ParamNames
		}
		out.Flows |= s.Flows
		out.Intrinsic = out.Intrinsic || s.Intrinsic
		out.VarTime |= s.VarTime
		out.Leak |= s.Leak
		for i, w := range s.VarTimeAt {
			if out.VarTimeAt == nil {
				out.VarTimeAt = map[int]string{}
			}
			if _, ok := out.VarTimeAt[i]; !ok {
				out.VarTimeAt[i] = w
			}
		}
		for i, w := range s.LeakAt {
			if out.LeakAt == nil {
				out.LeakAt = map[int]string{}
			}
			if _, ok := out.LeakAt[i]; !ok {
				out.LeakAt[i] = w
			}
		}
	}
	return out
}

func summaryEqual(a, b *Summary) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Flows == b.Flows && a.Intrinsic == b.Intrinsic &&
		a.VarTime == b.VarTime && a.Leak == b.Leak
}

// hotClosure marks every function warm-reachable from an //oram:hotpath
// root. A function whose doc carries //oram:offhotpath is a barrier: its
// body is exempt (it documents why) and the closure does not continue
// through it.
func (b *builder) hotClosure(facts *Facts) {
	var queue []string
	for _, sym := range sortedSyms(b.fns) {
		n := b.fns[sym]
		if directive.IsHotpath(n.decl) {
			facts.Hot[sym] = HotInfo{Root: sym}
			queue = append(queue, sym)
		}
	}
	for len(queue) > 0 {
		sym := queue[0]
		queue = queue[1:]
		n, declared := b.fns[sym]
		if declared && directive.IsOffHotpath(n.decl) && facts.Hot[sym].From != "" {
			// Barrier (unless it is itself a marked root, which would be
			// contradictory and is better surfaced by the analyzer).
			continue
		}
		info := facts.Hot[sym]
		var callees []string
		if declared {
			callees = sortedSyms(n.warm)
		} else {
			callees = b.ifaceMethods[sym] // interface node: fan out to implementers
		}
		for _, callee := range callees {
			if _, seen := facts.Hot[callee]; seen {
				continue
			}
			from := sym
			if !declared {
				from = info.From // attribute through the interface node
			}
			facts.Hot[callee] = HotInfo{Root: info.Root, From: from}
			queue = append(queue, callee)
		}
	}
}

// tarjan returns strongly connected components in reverse topological
// order of the condensation (callees before callers), iteratively so deep
// call chains cannot overflow the goroutine stack.
func tarjan(nodes []string, edges map[string][]string) [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0

	type frame struct {
		node string
		ei   int
	}
	for _, root := range nodes {
		if _, seen := index[root]; seen {
			continue
		}
		work := []frame{{node: root}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(work) > 0 {
			f := &work[len(work)-1]
			if f.ei < len(edges[f.node]) {
				child := edges[f.node][f.ei]
				f.ei++
				if _, seen := index[child]; !seen {
					index[child], low[child] = next, next
					next++
					stack = append(stack, child)
					onStack[child] = true
					work = append(work, frame{node: child})
				} else if onStack[child] && index[child] < low[f.node] {
					low[f.node] = index[child]
				}
				continue
			}
			// All children done: close the frame.
			node := f.node
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].node
				if low[node] < low[parent] {
					low[parent] = low[node]
				}
			}
			if low[node] == index[node] {
				var scc []string
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					scc = append(scc, top)
					if top == node {
						break
					}
				}
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}
