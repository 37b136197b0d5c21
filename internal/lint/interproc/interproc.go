// Package interproc is the whole-module dataflow engine under the
// interprocedural oramlint analyzers (secretflow, leaksink, and the
// hotpathalloc call-graph closure).
//
// The per-package analyzers of PR 8 see one function at a time: a leaf
// label returned from posmap and branched on three calls later in store is
// invisible to them. This engine closes that gap the way ct-verif-style
// constant-time checkers do, with function summaries over a module-wide
// call graph:
//
//   - Every declared function (and every interface method, joined over its
//     declared implementer set) gets a taint summary: which parameters flow
//     to results, whether results carry an intrinsic secret (an
//     addr/leaf/label/position value seeded by name inside the body or any
//     callee), which parameters reach a variable-time sink (branch, index,
//     loop bound, allocation size), and which reach an observability sink
//     (fmt/log/errors format args, panic).
//   - Summaries are computed to a fixpoint over the SCC condensation of
//     the call graph, so recursion and mutual recursion converge.
//   - A closure pass marks every function warm-reachable from an
//     //oram:hotpath root, resolving interface calls through the module's
//     declared implementer sets, so allocation discipline follows the call
//     graph instead of stopping at the annotation.
//
// Facts are plain data (masks and strings keyed by types.Func.FullName
// symbols), computed once per run and shared by every analyzer pass.
package interproc

import (
	"fmt"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"freecursive/internal/lint/analysis"
)

// Mask is a taint set over one function's parameters plus two intrinsic
// bits. Parameter i (receiver first, when present) is bit i; BitLocal marks
// taint seeded by a secret name inside the function; BitCall marks taint
// returned by a call to a secret-source function.
type Mask uint64

const (
	// MaxParams caps tracked parameters; functions with more spill the
	// remainder onto the last tracked bit (conservative join).
	MaxParams = 60
	// BitLocal marks taint seeded by an addr/leaf/label/position name in
	// the current function.
	BitLocal Mask = 1 << 60
	// BitCall marks taint that arrived as the result of a call to a
	// function whose summary says it returns secrets.
	BitCall Mask = 1 << 61
)

// ParamBits strips the intrinsic bits, leaving only parameter taint.
func ParamBits(m Mask) Mask { return m & (BitLocal - 1) }

// Intrinsic reports whether the mask carries secret taint independent of
// any parameter.
func (m Mask) Intrinsic() bool { return m&(BitLocal|BitCall) != 0 }

// SecretName matches identifiers that carry the secrets the ORAM hides:
// logical block addresses, leaf labels, and position-map values. Types
// gate the match (only integers and integer sequences carry them), so a
// network address string does not trip the addr pattern.
var SecretName = regexp.MustCompile(`(?i)(addr|leaf|label|pos)`)

// posMapName matches "posmap"/"PosMap" occurrences: names that refer to
// the position map as a structure (its sizes, block widths, level counts)
// rather than to a position value. Those are public geometry.
var posMapName = regexp.MustCompile(`(?i)pos[_]?map`)

// IsSecretName reports whether an identifier names a secret value. An
// occurrence of "posmap" inside the name is neutral — OnChipPosMapBytes
// sizes the position map, it does not hold a position — so those
// substrings are removed before the secret pattern is applied.
func IsSecretName(name string) bool {
	return SecretName.MatchString(posMapName.ReplaceAllString(name, ""))
}

// Taintable reports whether a type can carry an address or label: integers
// and sequences of integers.
func Taintable(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsInteger != 0
	case *types.Slice:
		return Taintable(u.Elem())
	case *types.Array:
		return Taintable(u.Elem())
	}
	return false
}

// Summary is one function's interprocedural taint behavior. All fields are
// in receiver-first parameter order.
type Summary struct {
	// ParamNames, receiver first. Callers use these to tell which sink
	// parameters are already self-evidently secret (named addr/leaf/...)
	// and which launder a secret through a neutral name.
	ParamNames []string
	// Flows has bit i set when taint on parameter i reaches a result.
	Flows Mask
	// Intrinsic is set when some result carries secret taint regardless of
	// arguments (the function is a secret source: posmap lookups, leaf
	// draws, and everything that returns their values).
	Intrinsic bool
	// VarTime has bit i set when taint on parameter i reaches a
	// variable-time sink (branch, index, loop bound, allocation size) in
	// this function or transitively in a callee.
	VarTime Mask
	// Leak has bit i set when taint on parameter i reaches an
	// observability sink (fmt/log format args, errors.New, panic) here or
	// transitively.
	Leak Mask
	// VarTimeAt and LeakAt hold one witness ("file:line: branch condition")
	// per flagged parameter, for diagnostics at the call site.
	VarTimeAt map[int]string
	LeakAt    map[int]string
}

func (s *Summary) paramName(i int) string {
	if i < len(s.ParamNames) && s.ParamNames[i] != "" {
		return s.ParamNames[i]
	}
	return fmt.Sprintf("#%d", i)
}

// HotInfo records why a function is on the hot path: the //oram:hotpath
// root it is reachable from and the immediate warm caller that reached it.
type HotInfo struct {
	Root string
	From string // immediate caller; empty for roots
}

// Facts is the module-wide result: summaries and hot-path closure, keyed
// by types.Func.FullName symbols (interface methods keyed the same way
// carry the join of their declared implementers).
type Facts struct {
	Summaries map[string]*Summary
	Hot       map[string]HotInfo
}

// Chain renders the warm call chain from a hot root down to sym,
// e.g. "(*PathORAM).Access -> evict -> helper".
func (f *Facts) Chain(sym string) string {
	var rev []string
	seen := map[string]bool{}
	for cur := sym; cur != "" && !seen[cur]; {
		seen[cur] = true
		rev = append(rev, shortSym(cur))
		cur = f.Hot[cur].From
	}
	var b strings.Builder
	for i := len(rev) - 1; i >= 0; i-- {
		if b.Len() > 0 {
			b.WriteString(" -> ")
		}
		b.WriteString(rev[i])
	}
	return b.String()
}

// Symbol returns the stable cross-package key for a function object. It is
// types.Func.FullName: "pkg/path.Fn", "(pkg/path.T).M", "(*pkg/path.T).M".
func Symbol(fn *types.Func) string { return fn.FullName() }

// ShortSym trims package paths out of a symbol for human-facing messages:
// "(*freecursive/internal/stash.Stash).Put" -> "(*stash.Stash).Put".
func ShortSym(sym string) string { return shortSym(sym) }

// shortSym trims package paths out of a symbol for human-facing messages:
// "(*freecursive/internal/stash.Stash).Put" -> "(*stash.Stash).Put".
func shortSym(sym string) string {
	out := make([]byte, 0, len(sym))
	for i := 0; i < len(sym); {
		j := strings.IndexAny(sym[i:], "()* .")
		if j != 0 {
			// A path-ish run: keep only the last two dot-separated parts
			// after stripping directories.
			end := len(sym)
			if j > 0 {
				end = i + j
			}
			word := sym[i:end]
			if k := strings.LastIndexByte(word, '/'); k >= 0 {
				word = word[k+1:]
			}
			out = append(out, word...)
			i = end
			continue
		}
		out = append(out, sym[i])
		i++
	}
	return string(out)
}

const factsKey = "interproc.facts"

// FactsFor returns the module facts visible to pass, computing them on
// first use: over every unit of pass.Module (built once, cached in the
// module's fact slot), or over the pass's own package when it has no
// module (single-directory fixtures).
//
// The returned Facts must be treated as read-only by analyzers.
func FactsFor(pass *analysis.Pass) *Facts {
	if pass.Module == nil {
		return Compute([]*analysis.Unit{pass.Unit()})
	}
	return pass.Module.Fact(factsKey, func() any {
		return Compute(pass.Module.Units)
	}).(*Facts)
}

// Compute builds module facts from scratch over the given units.
func Compute(units []*analysis.Unit) *Facts {
	b := newBuilder(units)
	return b.build()
}

// sortedSyms returns map keys in deterministic order.
func sortedSyms[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// posString renders a position for witness strings.
func posString(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", trimPath(p.Filename), p.Line)
}

func trimPath(name string) string {
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		return name[i+1:]
	}
	return name
}
