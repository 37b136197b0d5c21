// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis driver surface: just enough for the
// oramlint suite to express its checkers in the standard Analyzer/Pass
// shape. The module deliberately has no third-party dependencies, so the
// real x/tools framework is out of reach; keeping the API shape identical
// (Analyzer{Name, Doc, Run}, Pass with Fset/Files/Pkg/TypesInfo/Report)
// means the analyzers port to the upstream framework mechanically if the
// dependency ever lands.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sync"
)

// Analyzer describes one static check. Run inspects the package in Pass and
// reports findings through Pass.Report; it must not mutate the ASTs.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //oramlint:allow <name> suppressions. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph help text: the invariant being enforced and
	// why, shown by `oramlint -help`.
	Doc string
	// Run performs the analysis. A non-nil error aborts the whole run (it
	// means the analyzer itself is broken, not that the code has findings).
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Module, when non-nil, gives interprocedural analyzers the whole
	// build: every workspace package type-checked under one FileSet, plus
	// a slot for module-wide facts (call graph, taint summaries) computed
	// once and shared across analyzers. Per-package analyzers ignore it,
	// and interprocedural analyzers degrade to single-package scope when
	// it is nil (as in the single-directory fixture harness).
	Module *Module
	// Report delivers one finding. The driver applies //oramlint:allow
	// suppression after reporting, so analyzers never inspect directives.
	Report func(Diagnostic)
}

// Unit is one type-checked package inside a Module: the same per-package
// fields a Pass carries, without an analyzer bound to them.
type Unit struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// Unit returns the pass's own package as a Unit.
func (p *Pass) Unit() *Unit {
	return &Unit{Fset: p.Fset, Files: p.Files, Pkg: p.Pkg, TypesInfo: p.TypesInfo}
}

// Module is a whole-workspace view: every target package from one load,
// sharing a FileSet so positions are comparable across packages.
type Module struct {
	Units []*Unit

	mu    sync.Mutex
	facts map[string]any
}

// Fact returns the module-wide fact stored under key, computing and caching
// it with build on first use. The driver and every analyzer share one facts
// map, so the call graph and taint summaries are computed once per run no
// matter how many analyzers consume them. build may be nil to probe.
func (m *Module) Fact(key string, build func() any) any {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.facts[key]; ok {
		return v
	}
	if build == nil {
		return nil
	}
	v := build()
	if m.facts == nil {
		m.facts = map[string]any{}
	}
	m.facts[key] = v
	return v
}

// Diagnostic is one finding at one source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
