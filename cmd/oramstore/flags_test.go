package main

import (
	"flag"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestFlagsDocumented: each README flag table lists exactly the flags its
// mode defines, so a retired flag cannot linger in the docs and a new one
// cannot go undocumented.
func TestFlagsDocumented(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		mode, lead string
		fs         *flag.FlagSet
	}{
		{"serve", "Serve-mode flags:", serveFlags(&serveOpts{})},
		{"load", "Load-mode flags:", loadFlags(&loadArgs{})},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			var defined []string
			tc.fs.VisitAll(func(f *flag.Flag) { defined = append(defined, f.Name) })

			_, table, ok := strings.Cut(string(raw), tc.lead)
			if !ok {
				t.Fatalf("README has no %q table", tc.lead)
			}
			table, _, _ = strings.Cut(strings.TrimLeft(table, "\n"), "\n\n")
			name := regexp.MustCompile("`-([a-z-]+)`")
			var documented []string
			for _, row := range strings.Split(table, "\n") {
				cells := strings.Split(row, "|")
				if len(cells) < 2 {
					continue
				}
				for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
					documented = append(documented, m[1])
				}
			}
			slices.Sort(defined)
			slices.Sort(documented)
			if !slices.Equal(defined, documented) {
				t.Fatalf("README %s flags %v, %s defines %v", tc.mode, documented, tc.mode, defined)
			}
		})
	}
}
