// Package leaksink defines an analyzer that keeps ORAM secrets out of
// observability surfaces: error strings, log lines, metrics labels, and
// panic messages.
//
// The construction hides which logical address a client touched; an error
// string that says "address 0x2f3 out of range" un-hides it the moment the
// error crosses the HTTP routes, the frame transport, or the /shards cause
// field.
// PAPER.md's security argument covers every externally observable channel,
// and error payloads are exactly that. This analyzer uses the interproc
// engine's taint summaries to flag any addr/leaf/position-derived value —
// local, or arriving through a call chain — that reaches:
//
//   - fmt format/print functions (Errorf is how error strings are built;
//     Fprintf is how /metrics lines are written),
//   - errors.New with a tainted message,
//   - any log package call,
//   - panic arguments.
//
// The fix is redaction: error strings carry public identifiers only (shard
// index, op index), never the address, leaf, or position value itself.
// Errors are declassified once built (branching on err != nil is clean);
// the finding sits at the construction site where the secret enters the
// string.
package leaksink

import (
	"strings"

	"freecursive/internal/lint/analysis"
	"freecursive/internal/lint/interproc"
)

// Analyzer reports secrets reaching observability surfaces.
var Analyzer = &analysis.Analyzer{
	Name: "leaksink",
	Doc: `forbid addr/leaf/position secrets in error strings, logs, metrics, and panics

Using whole-module taint summaries, flags secret-derived values formatted
into fmt/errors/log calls or panic arguments, directly or through a call
chain, in the trusted packages and the serving layer whose error payloads
reach clients. Error strings must carry public identifiers only (shard
index, op index). Suppressions carry //oramlint:allow leaksink with the
source and sink named.`,
	Run: run,
}

// ScopePackages are the import-path suffixes leaksink reports in: the
// trusted ORAM packages plus the serving layers whose formatted output
// (batch error payloads, /metrics text, /shards causes, frame error
// bytes) crosses to the outside.
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
	"internal/httpapi",
	"internal/frameserver",
	"internal/bucketwire",
	"internal/bucketd",
}

func inScope(path string) bool {
	if path == "freecursive" { // the root package's errors surface via the public API
		return true
	}
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
	for _, fl := range interproc.Flows(pass, facts) {
		callSeen := map[string]bool{}
		for _, ev := range fl.Events {
			origin := secretOrigin(ev, fl)
			if origin == "" {
				continue
			}
			switch ev.Kind {
			case interproc.EvLeak:
				pass.Reportf(ev.Pos,
					"secret (%s) reaches %s; observable strings must carry only public identifiers (shard index, op index), never addr/leaf/position values",
					origin, ev.What)
			case interproc.EvCallLeak:
				if interproc.IsSecretName(ev.CalleeParam) {
					continue // callee's own construction-site finding covers it
				}
				k := ev.Callee + "|" + ev.CalleeParam + "|" + origin
				if callSeen[k] {
					continue
				}
				callSeen[k] = true
				where := ev.Witness
				if where == "" {
					where = "an observability sink"
				}
				pass.Reportf(ev.Pos,
					"secret (%s) flows into parameter %q of %s, which formats it at %s",
					origin, ev.CalleeParam, interproc.ShortSym(ev.Callee), where)
			}
		}
	}
	return nil
}

// secretOrigin reports the origin label when the event's taint is secret
// from this function's perspective, "" otherwise.
func secretOrigin(ev interproc.Event, fl *interproc.FnFlow) string {
	switch {
	case ev.Mask&interproc.BitCall != 0:
		return orDefault(ev.Origin, "a secret-source call")
	case ev.Mask&fl.SecretParams != 0:
		return orDefault(ev.Origin, "a secret-named parameter")
	case ev.Mask&interproc.BitLocal != 0:
		return orDefault(ev.Origin, "a secret-named value")
	}
	return ""
}

func orDefault(s, d string) string {
	if s == "" {
		return d
	}
	return s
}
