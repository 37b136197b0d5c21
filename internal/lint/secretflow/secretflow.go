// Package secretflow defines the one taint analyzer for the controller's
// obliviousness invariant: whole-module propagation of addr/leaf/position
// secrets into variable-time sinks.
//
// The threat model of the paper (§2) lets the adversary observe the
// address sequence to untrusted memory and the timing of every operation.
// Inside the trusted controller, code that branches on a block address or
// indexes a table by a leaf label turns that secret into a timing or
// cache-line signal ("A Language for Probabilistically Oblivious
// Computation" treats this as a property to enforce statically). The
// interproc engine's function summaries let the check follow a secret
// across calls:
//
//   - Sink-side: in the scoped ORAM packages, a branch/index/loop-bound/
//     allocation-size whose value derives from a call to a secret-source
//     function (posmap lookups and everything summarized as returning
//     secrets) or from a secret-named parameter is reported, whatever the
//     local names say. In a package marked //oram:oblivious, a value that
//     is both seeded by name and sunk inside one function is reported too:
//     the marker opts the package into the strictest, name-only reading.
//   - Call-side: passing a secret into a parameter that the callee
//     (transitively) sinks into a variable-time construct is reported at
//     the call site — unless the parameter's own name already marks it
//     secret, in which case the callee's sink-side finding covers it.
//
// Findings that reflect the construction's deliberate reveals (Path ORAM
// discloses each access's leaf; the shard an op routes to is public
// infrastructure) carry //oramlint:allow secretflow with the source and
// sink named in the reason.
package secretflow

import (
	"strings"

	"freecursive/internal/lint/analysis"
	"freecursive/internal/lint/directive"
	"freecursive/internal/lint/interproc"
)

// Analyzer reports cross-function secret flow into variable-time sinks.
var Analyzer = &analysis.Analyzer{
	Name: "secretflow",
	Doc: `flag interprocedural flow of addr/leaf/position secrets into variable-time sinks

Using whole-module taint summaries, flags (1) variable-time sinks — branch
conditions, loop bounds, switch tags, memory indexing, allocation sizes —
fed by values that derive from secret-source calls or secret-named data,
and (2) call sites that pass a secret into a neutrally-named parameter the
callee sinks. Scope is the trusted ORAM packages (core, backend, bhoram,
stash, plb, posmap, mem, store, tree, crypt); a file-level //oram:oblivious
directive additionally reports secrets named and sunk inside one function.
Deliberate reveals carry //oramlint:allow secretflow with source and sink
named.`,
	Run: run,
}

// ScopePackages are the import-path suffixes secretflow reports in: the
// trusted controller and its storage layers. Serving-layer packages handle
// client-supplied addresses under the client's own trust domain and are
// covered by leaksink instead.
var ScopePackages = []string{
	"internal/core",
	"internal/backend",
	"internal/backend/bhoram",
	"internal/stash",
	"internal/plb",
	"internal/posmap",
	"internal/mem",
	"internal/store",
	"internal/tree",
	"internal/crypt",
}

func inScope(path string) bool {
	for _, suf := range ScopePackages {
		if path == suf || strings.HasSuffix(path, "/"+suf) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	facts := interproc.FactsFor(pass)
	oblivious := false
	for _, f := range pass.Files {
		if directive.IsOblivious(f) {
			oblivious = true
			break
		}
	}
	for _, fl := range interproc.Flows(pass, facts) {
		report(pass, fl, oblivious)
	}
	return nil
}

// report turns one function's events into findings, deduplicating
// sink-side events per (origin, sink kind) so one secret branched on five
// times in a function costs one finding (with a count), not five allows.
func report(pass *analysis.Pass, fl *interproc.FnFlow, oblivious bool) {
	type key struct{ origin, what string }
	sinkSeen := map[key]int{}
	callSeen := map[string]bool{}

	for _, ev := range fl.Events {
		switch ev.Kind {
		case interproc.EvVarTime:
			origin, viaCall := classify(ev, fl)
			if origin == "" {
				continue
			}
			// Sink-side findings need cross-function evidence: the secret
			// arrived via a call result or a secret-named parameter. A value
			// seeded and sunk inside one function is reported only in
			// //oram:oblivious packages (everywhere else a neutral local that
			// happens to be named pos or label would drown the signal), and
			// when a caller passes a real secret into this function, the
			// call-side finding reports it at that call with the true origin.
			if !viaCall && ev.Mask&fl.SecretParams == 0 && !oblivious {
				continue
			}
			k := key{origin, ev.What}
			sinkSeen[k]++
			if sinkSeen[k] > 1 {
				continue
			}
			pass.Reportf(ev.Pos,
				"secret-dependent %s: value derives from %s; control flow and memory addressing must be independent of addr/leaf/position secrets",
				ev.What, origin)
		case interproc.EvCallVarTime:
			origin, _ := classify(ev, fl)
			if origin == "" {
				continue
			}
			if interproc.IsSecretName(ev.CalleeParam) {
				continue // callee's own sink-side finding covers it
			}
			k := ev.Callee + "|" + ev.CalleeParam + "|" + origin
			if callSeen[k] {
				continue
			}
			callSeen[k] = true
			where := ev.Witness
			if where == "" {
				where = "a variable-time sink"
			}
			pass.Reportf(ev.Pos,
				"secret (%s) flows into parameter %q of %s, which sinks it at %s",
				origin, ev.CalleeParam, interproc.ShortSym(ev.Callee), where)
		}
	}
}

// classify decides whether an event's taint is secret from this
// function's perspective, returning a human origin label and whether the
// secret arrived via a call (interprocedural source).
func classify(ev interproc.Event, fl *interproc.FnFlow) (origin string, viaCall bool) {
	switch {
	case ev.Mask&interproc.BitCall != 0:
		return orDefault(ev.Origin, "a secret-source call"), true
	case ev.Mask&fl.SecretParams != 0:
		return orDefault(ev.Origin, "a secret-named parameter"), false
	case ev.Mask&interproc.BitLocal != 0:
		return orDefault(ev.Origin, "a secret-named value"), false
	}
	return "", false
}

func orDefault(s, d string) string {
	if s == "" {
		return d
	}
	return s
}
