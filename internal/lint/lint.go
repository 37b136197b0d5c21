// Package lint assembles the oramlint analyzer suite and applies the
// //oramlint:allow suppression model on top of raw analyzer diagnostics.
//
// Suppression is a driver concern, not an analyzer concern: analyzers
// report every violation they see, and the driver drops findings that a
// reviewed //oramlint:allow directive covers. That split keeps each
// analyzer simple and makes the allow semantics uniform — same line or the
// line directly below, reason mandatory, unused allows are themselves
// findings so stale suppressions can't linger after the code they excused
// is gone.
package lint

import (
	"fmt"
	"go/token"
	"sort"

	"freecursive/internal/lint/analysis"
	"freecursive/internal/lint/bufferown"
	"freecursive/internal/lint/directive"
	"freecursive/internal/lint/errwrap"
	"freecursive/internal/lint/hotpathalloc"
	"freecursive/internal/lint/leaksink"
	"freecursive/internal/lint/secretcompare"
	"freecursive/internal/lint/secretflow"
)

// Analyzers returns the full oramlint suite, in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		secretcompare.Analyzer,
		bufferown.Analyzer,
		errwrap.Analyzer,
		hotpathalloc.Analyzer,
		secretflow.Analyzer,
		leaksink.Analyzer,
	}
}

// Finding is one post-suppression diagnostic, ready to print.
type Finding struct {
	Pos      token.Position
	Analyzer string // empty for driver-level findings (bad allow directives)
	Message  string
}

func (f Finding) String() string {
	if f.Analyzer == "" {
		return fmt.Sprintf("%s: %s", f.Pos, f.Message)
	}
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer)
}

// Stats counts post-suppression findings and used (honored) allow
// directives per analyzer for one run; the CI report aggregates them
// across packages and gates allow-count growth against a committed
// baseline.
type Stats struct {
	Findings map[string]int `json:"findings"`
	Allows   map[string]int `json:"allows"`
}

// Merge folds other's counts into s.
func (s *Stats) Merge(other Stats) {
	for k, v := range other.Findings {
		s.Findings[k] += v
	}
	for k, v := range other.Allows {
		s.Allows[k] += v
	}
}

// NewStats returns an empty, mergeable Stats.
func NewStats() Stats {
	return Stats{Findings: map[string]int{}, Allows: map[string]int{}}
}

// Run executes every analyzer in the suite over one type-checked package
// and returns the findings that survive //oramlint:allow suppression,
// sorted by position. Driver-level findings (allow without a reason, allow
// naming an unknown analyzer, allow that suppressed nothing) are included.
func Run(pkg *analysis.Pass) ([]Finding, error) {
	f, _, err := run(Analyzers(), pkg)
	return f, err
}

// RunStats is Run returning per-analyzer finding and allow counts as well.
func RunStats(pkg *analysis.Pass) ([]Finding, Stats, error) {
	return run(Analyzers(), pkg)
}

// RunAnalyzers is Run restricted to a chosen subset of the suite; the
// fixture harness uses it to exercise one analyzer at a time. Allow
// directives naming analyzers outside the subset are ignored rather than
// flagged as unknown.
func RunAnalyzers(analyzers []*analysis.Analyzer, pkg *analysis.Pass) ([]Finding, error) {
	f, _, err := run(analyzers, pkg)
	return f, err
}

type rawDiag struct {
	analyzer string
	pos      token.Position
	message  string
}

func run(analyzers []*analysis.Analyzer, pkg *analysis.Pass) ([]Finding, Stats, error) {
	stats := NewStats()
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	inSuite := map[string]bool{}
	for _, a := range analyzers {
		inSuite[a.Name] = true
	}

	var raw []rawDiag
	for _, a := range analyzers {
		a := a
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.TypesInfo,
			Module:    pkg.Module,
			Report: func(d analysis.Diagnostic) {
				raw = append(raw, rawDiag{
					analyzer: a.Name,
					pos:      pkg.Fset.Position(d.Pos),
					message:  d.Message,
				})
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, stats, fmt.Errorf("lint: analyzer %s on %s: %w", a.Name, pkg.Pkg.Path(), err)
		}
	}

	// Gather allow directives per file.
	type allowKey struct {
		file     string
		analyzer string
		line     int
	}
	allows := map[allowKey]int{} // -> index into allAllows
	var findings []Finding
	var allAllows []directive.Allow
	fileOf := func(pos token.Pos) string { return pkg.Fset.Position(pos).Filename }
	for _, f := range pkg.Files {
		for _, al := range directive.Allows(pkg.Fset, f) {
			switch {
			case al.Analyzer == "":
				findings = append(findings, Finding{
					Pos:     pkg.Fset.Position(al.Pos),
					Message: "//oramlint:allow needs an analyzer name and a reason",
				})
				continue
			case !known[al.Analyzer]:
				findings = append(findings, Finding{
					Pos:     pkg.Fset.Position(al.Pos),
					Message: fmt.Sprintf("//oramlint:allow names unknown analyzer %q", al.Analyzer),
				})
				continue
			case al.Reason == "":
				findings = append(findings, Finding{
					Pos:     pkg.Fset.Position(al.Pos),
					Message: fmt.Sprintf("//oramlint:allow %s has no reason; suppressions must say why the flagged code is acceptable", al.Analyzer),
				})
				continue
			}
			if !inSuite[al.Analyzer] {
				continue // valid allow for an analyzer not in this run
			}
			allAllows = append(allAllows, al)
			allows[allowKey{fileOf(al.Pos), al.Analyzer, al.Line}] = len(allAllows) - 1
		}
	}

	// Apply suppression: an allow on line L covers findings on L and L+1.
	used := make([]bool, len(allAllows))
	for _, d := range raw {
		suppressed := false
		for _, line := range []int{d.pos.Line, d.pos.Line - 1} {
			if i, ok := allows[allowKey{d.pos.Filename, d.analyzer, line}]; ok {
				used[i] = true
				suppressed = true
				break
			}
		}
		if !suppressed {
			stats.Findings[d.analyzer]++
			findings = append(findings, Finding{Pos: d.pos, Analyzer: d.analyzer, Message: d.message})
		}
	}
	for i, al := range allAllows {
		if used[i] {
			stats.Allows[al.Analyzer]++
		}
	}

	// Stale allows: a suppression with nothing to suppress must be deleted,
	// not inherited by whatever lands on that line next.
	for i, al := range allAllows {
		if !used[i] {
			findings = append(findings, Finding{
				Pos:     pkg.Fset.Position(al.Pos),
				Message: fmt.Sprintf("//oramlint:allow %s suppresses nothing; delete the stale directive", al.Analyzer),
			})
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return findings, stats, nil
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *analysis.Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
