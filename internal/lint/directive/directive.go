// Package directive parses the comment directives the oramlint suite is
// driven by:
//
//	//oram:hotpath
//	    On a function's doc comment: the function is on the steady-state
//	    per-access hot path and must not allocate (hotpathalloc). The
//	    discipline extends to every function warm-reachable from a marked
//	    root on the module call graph (the hotpathalloc closure).
//	//oram:offhotpath <reason>
//	    On a function's doc comment: the function is deliberately outside
//	    the hot-path closure (e.g. RTT-bound remote transport); the closure
//	    does not check its body or continue through its callees.
//	//oram:oblivious
//	    File-level, conventionally just above the package clause: every
//	    function in the package must keep control flow and memory indexing
//	    independent of block addresses and leaf labels: secretflow also
//	    reports secrets named and sunk inside one function there. Marking
//	    any file marks the whole package.
//	//oram:errdomain Err1 Err2 ...
//	    File-level: every error constructed in the package must wrap (via a
//	    %w verb) one of the named sentinel errors (errwrap).
//	//oramlint:allow <analyzer> <reason>
//	    Suppresses findings from <analyzer> on the same line or the line
//	    directly below. The reason is mandatory: a suppression is a reviewed
//	    security decision and must say why the flagged code is acceptable.
//
// Directives follow the Go convention: `//` immediately followed by the
// directive (no space), so gofmt leaves them alone and they read as
// machine-facing.
package directive

import (
	"go/ast"
	"go/token"
	"strings"
)

// Prefixes for each directive, including the comment slashes.
const (
	hotpathPrefix    = "//oram:hotpath"
	offhotpathPrefix = "//oram:offhotpath"
	obliviousPrefix  = "//oram:oblivious"
	errdomainPrefix  = "//oram:errdomain"
	allowPrefix      = "//oramlint:allow"
)

// Allow is one parsed //oramlint:allow directive.
type Allow struct {
	Pos      token.Pos
	Line     int    // line the directive appears on
	Analyzer string // analyzer name being suppressed
	Reason   string // empty = invalid (reasons are mandatory)
}

// Allows returns every //oramlint:allow directive in the file, in source
// order.
func Allows(fset *token.FileSet, f *ast.File) []Allow {
	var out []Allow
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := cutDirective(c.Text, allowPrefix)
			if !ok {
				continue
			}
			name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
			out = append(out, Allow{
				Pos:      c.Pos(),
				Line:     fset.Position(c.Pos()).Line,
				Analyzer: name,
				Reason:   strings.TrimSpace(reason),
			})
		}
	}
	return out
}

// IsHotpath reports whether fn's doc comment carries //oram:hotpath.
func IsHotpath(fn *ast.FuncDecl) bool {
	return hasDirective(fn.Doc, hotpathPrefix)
}

// IsOffHotpath reports whether fn's doc comment carries //oram:offhotpath:
// the function is deliberately outside the hot-path allocation closure
// (e.g. a network transport whose per-op cost is RTT-bound), and the
// closure neither checks its body nor continues through its callees. The
// directive takes a free-form reason after the keyword; the doc comment
// should say why the exemption is sound.
func IsOffHotpath(fn *ast.FuncDecl) bool {
	return hasDirective(fn.Doc, offhotpathPrefix)
}

// IsOblivious reports whether any comment in the file is //oram:oblivious.
// The directive conventionally sits on its own line above the package
// clause; any position in the file counts, and one marked file marks the
// package.
func IsOblivious(f *ast.File) bool {
	for _, cg := range f.Comments {
		if hasDirective(cg, obliviousPrefix) {
			return true
		}
	}
	return false
}

// ErrDomain returns the sentinel error names declared by //oram:errdomain
// directives in the file (nil when the file declares none).
func ErrDomain(f *ast.File) []string {
	var out []string
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if rest, ok := cutDirective(c.Text, errdomainPrefix); ok {
				out = append(out, strings.Fields(rest)...)
			}
		}
	}
	return out
}

// hasDirective reports whether the comment group contains a line that is
// exactly the directive (or the directive followed by arguments).
func hasDirective(cg *ast.CommentGroup, prefix string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if _, ok := cutDirective(c.Text, prefix); ok {
			return true
		}
	}
	return false
}

// cutDirective matches comment text against a directive prefix and returns
// the argument remainder. The directive must be the whole comment token up
// to whitespace: "//oram:hotpathX" does not match "//oram:hotpath".
func cutDirective(text, prefix string) (rest string, ok bool) {
	if !strings.HasPrefix(text, prefix) {
		return "", false
	}
	rest = text[len(prefix):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	return rest, true
}
