package lint_test

import (
	"strings"
	"testing"

	"freecursive/internal/lint"
	"freecursive/internal/lint/errwrap"
	"freecursive/internal/lint/lintest"
)

// Reasoned allows — same line or the line directly above — fully suppress
// analyzer findings: the fixture contains two errwrap violations and two
// valid directives, and the driver reports nothing.
func TestAllowSuppresses(t *testing.T) {
	lintest.Run(t, "allow", "x/internal/mem", errwrap.Analyzer)
}

// Malformed and stale allows are findings in their own right: a missing
// reason, an unknown analyzer name, and a directive with nothing left to
// suppress are each reported (plus the violation the reasonless allow
// failed to suppress).
func TestBadAllowsAreFindings(t *testing.T) {
	pass := lintest.Load(t, "badallow", "x/internal/mem")
	findings, err := lint.Run(pass)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		line int
		frag string
	}{
		{9, "has no reason"},
		{11, "fmt.Errorf without %w"},
		{14, "unknown analyzer"},
		{17, "suppresses nothing"},
	}
	if len(findings) != len(want) {
		for _, f := range findings {
			t.Logf("got: %s", f)
		}
		t.Fatalf("got %d findings, want %d", len(findings), len(want))
	}
	for i, w := range want {
		if findings[i].Pos.Line != w.line || !strings.Contains(findings[i].Message, w.frag) {
			t.Errorf("finding %d = %s; want line %d containing %q", i, findings[i], w.line, w.frag)
		}
	}
}

func TestSuiteRoster(t *testing.T) {
	as := lint.Analyzers()
	if len(as) != 6 {
		t.Fatalf("suite has %d analyzers, want 6", len(as))
	}
	want := map[string]bool{
		"secretcompare": true, "bufferown": true, "errwrap": true,
		"hotpathalloc": true, "secretflow": true, "leaksink": true,
	}
	for _, a := range as {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q", a.Name)
		}
		if lint.ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the registered analyzer", a.Name)
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc", a.Name)
		}
	}
}
