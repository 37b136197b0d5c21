package secretflow_test

import (
	"testing"

	"freecursive/internal/lint"
	"freecursive/internal/lint/analysis"
	"freecursive/internal/lint/lintest"
	"freecursive/internal/lint/secretflow"
)

// TestCrossPackageFlows: secrets minted in one package are flagged where
// another package branches on them, indexes by them, or forwards them into
// a parameter the callee sinks — with clean and allowed cases staying
// silent.
func TestCrossPackageFlows(t *testing.T) {
	lintest.RunModule(t, "multi", secretflow.Analyzer,
		lintest.ModulePkg{Dir: "posmap", Path: "x/internal/posmap"},
		lintest.ModulePkg{Dir: "store", Path: "x/internal/store"},
	)
}

// TestFlagsSecretDependentFlow: in an //oram:oblivious package a secret
// named and sunk inside one function is a finding — branch, loop bound,
// switch tag and memory index, directly or through assignments and ranges.
func TestFlagsSecretDependentFlow(t *testing.T) {
	lintest.Run(t, "oblivious", "x/internal/tree", secretflow.Analyzer)
}

// TestCleanObliviousCode: marked code whose control flow depends only on
// public values stays silent.
func TestCleanObliviousCode(t *testing.T) {
	lintest.Run(t, "clean", "x/internal/tree", secretflow.Analyzer)
}

// TestUnmarkedPackageSkipsLocalSecrets: without the marker a secret-named
// parameter reaching a sink is still reported, a secret named and sunk
// inside one function is not.
func TestUnmarkedPackageSkipsLocalSecrets(t *testing.T) {
	lintest.Run(t, "unmarked", "x/internal/tree", secretflow.Analyzer)
}

// TestOutOfScopePackageIsExempt: outside the trusted ORAM packages the
// analyzer stays silent on the very code it flags inside them.
func TestOutOfScopePackageIsExempt(t *testing.T) {
	pass := lintest.Load(t, "unmarked", "x/internal/httpapi")
	findings, err := lint.RunAnalyzers([]*analysis.Analyzer{secretflow.Analyzer}, pass)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding: %s", f)
	}
}
