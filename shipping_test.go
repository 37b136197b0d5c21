package freecursive

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestTestDoublesStayOutOfShippedCode: the library and the two binaries
// are built from production code only. The adversary, the fault decorator
// and the backend harness are test-side, and so is the testing package;
// none of them may enter the import closure of anything that ships.
func TestTestDoublesStayOutOfShippedCode(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	forbidden := []string{
		"testing",
		"freecursive/internal/mem/memtest",
		"freecursive/internal/backend/backendtest",
		"freecursive/internal/adversary",
	}
	for _, root := range []string{"freecursive", "./client", "./cmd/oramstore", "./cmd/bucketd"} {
		out, err := exec.Command(goBin, "list", "-deps", root).CombinedOutput()
		if err != nil {
			t.Fatalf("go list -deps %s: %v\n%s", root, err, out)
		}
		deps := strings.Fields(string(out))
		if len(deps) == 0 || !strings.HasPrefix(deps[len(deps)-1], "freecursive") {
			t.Fatalf("go list -deps %s does not end in the package itself: %v", root, deps)
		}
		for _, pkg := range forbidden {
			if slices.Contains(deps, pkg) {
				t.Errorf("%s imports %s", root, pkg)
			}
		}
	}
}
