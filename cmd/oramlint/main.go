// Command oramlint runs the repo's custom analyzer suite: the static
// checks that keep the ORAM controller's security and performance
// invariants from regressing (constant-time tag comparison, backend buffer
// ownership, storage-sentinel error wrapping, hot-path allocation
// discipline, secret-independent control flow, secret-free telemetry).
//
//	oramlint [-report file] [packages]
//
// loads, type-checks and analyzes the named packages (default ./...) of
// the current module in one process, so the interprocedural analyzers see
// the whole call graph. Non-test files only; exits 1 if any unsuppressed
// finding remains.
//
// Findings are suppressed only by an //oramlint:allow <analyzer> <reason>
// directive on the same line or the line directly above; the reason is
// mandatory and stale directives are themselves findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"freecursive/internal/lint"
	"freecursive/internal/lint/analysis"
	"freecursive/internal/lint/loader"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: oramlint [-report file] [packages]\n\nRuns the freecursive analyzer suite (default ./...):\n\n")
		for _, a := range lint.Analyzers() {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, doc)
		}
	}
	reportPath := flag.String("report", "", "write per-analyzer finding/allow counts as JSON to this file")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(run(patterns, *reportPath))
}

// report is the LINT_report.json schema: per-analyzer counts plus totals,
// so CI can gate on allow-count growth against a committed baseline.
type report struct {
	Findings     map[string]int `json:"findings"`
	Allows       map[string]int `json:"allows"`
	TotalAllows  int            `json:"total_allows"`
	TotalFinding int            `json:"total_findings"`
}

func run(patterns []string, reportPath string) int {
	pkgs, err := loader.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oramlint:", err)
		return 2
	}
	// One module over every loaded package: the interprocedural analyzers
	// build their call graph and taint summaries once, shared across
	// per-package passes via the module fact cache.
	module := &analysis.Module{}
	for _, p := range pkgs {
		module.Units = append(module.Units, &analysis.Unit{
			Fset: p.Fset, Files: p.Files, Pkg: p.Pkg, TypesInfo: p.TypesInfo,
		})
	}
	stats := lint.NewStats()
	bad := 0
	for _, p := range pkgs {
		findings, st, err := lint.RunStats(&analysis.Pass{
			Fset:      p.Fset,
			Files:     p.Files,
			Pkg:       p.Pkg,
			TypesInfo: p.TypesInfo,
			Module:    module,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "oramlint:", err)
			return 2
		}
		stats.Merge(st)
		for _, f := range findings {
			fmt.Println(f)
			bad++
		}
	}
	if reportPath != "" {
		if err := writeReport(reportPath, stats); err != nil {
			fmt.Fprintln(os.Stderr, "oramlint:", err)
			return 2
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "oramlint: %d finding(s)\n", bad)
		return 1
	}
	return 0
}

func writeReport(path string, stats lint.Stats) error {
	r := report{Findings: stats.Findings, Allows: stats.Allows}
	for _, n := range stats.Allows {
		r.TotalAllows += n
	}
	for _, n := range stats.Findings {
		r.TotalFinding += n
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}
