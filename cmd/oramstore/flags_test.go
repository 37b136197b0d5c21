package main

import (
	"flag"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestServeFlagsDocumented: the README's serve-flag table lists exactly the
// flags serve defines, so a retired flag cannot linger in the docs and a new
// one cannot go undocumented.
func TestServeFlagsDocumented(t *testing.T) {
	var defined []string
	serveFlags(&serveOpts{}).VisitAll(func(f *flag.Flag) { defined = append(defined, f.Name) })

	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(raw), "Serve-mode flags:")
	if !ok {
		t.Fatal(`README has no "Serve-mode flags:" table`)
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
		t.Fatalf("README serve flags %v, serve defines %v", documented, defined)
	}
}
