package main

import (
	"flag"
	"net"
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

// TestFlagValuesChecked: a flag value the store would silently replace
// (-blocks 64 wraps to 0 blocks, which store.New turns into its default),
// that would panic the load workers (an address range of 0, a negative
// -block), divide by zero (-duration 0), run nothing (-workers 0), be
// clamped without a word (-writes outside [0, 1]), or quietly disable the
// snapshot ticker (a negative -snapshot-interval) is refused with an error
// naming the flag; in-range values pass.
func TestFlagValuesChecked(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		mode string
		args []string
		want string // "" when the flags are valid
	}{
		{"serve", []string{"-blocks", "0"}, ""},
		{"serve", []string{"-blocks", "63"}, ""},
		{"serve", []string{"-blocks", "64"}, "-blocks"},
		{"serve", []string{"-blocks", "-1"}, "-blocks"},
		{"serve", []string{"-data-dir", dir, "-snapshot-interval", "1s"}, ""},
		{"serve", []string{"-data-dir", dir, "-snapshot-interval", "-1s"}, "-snapshot-interval"},
		{"serve", []string{"-snapshot-interval", "1s"}, "-snapshot-interval"},
		{"load", []string{"-blocks", "12"}, ""},
		{"load", []string{"-blocks", "64"}, "-blocks"},
		{"load", []string{"-blocks", "-1"}, "-blocks"},
		{"load", []string{"-dist", "zipf", "-zipf-s", "1"}, "-zipf-s"},
		{"load", []string{"-block", "0", "-workers", "1", "-writes", "0"}, ""},
		{"load", []string{"-writes", "1"}, ""},
		{"load", []string{"-block", "-1"}, "-block"},
		{"load", []string{"-duration", "0s"}, "-duration"},
		{"load", []string{"-duration", "-1s"}, "-duration"},
		{"load", []string{"-workers", "0"}, "-workers"},
		{"load", []string{"-writes", "-0.1"}, "-writes"},
		{"load", []string{"-writes", "1.5"}, "-writes"},
		{"load", []string{"-writes", "NaN"}, "-writes"},
	} {
		var err error
		if tc.mode == "serve" {
			var o serveOpts
			if err = serveFlags(&o).Parse(tc.args); err == nil {
				err = o.check()
				if err == nil && o.cfg.Blocks != 1<<uint(o.logBlocks) {
					t.Errorf("%s %v: cfg.Blocks = %d", tc.mode, tc.args, o.cfg.Blocks)
				}
			}
		} else {
			var o loadArgs
			if err = loadFlags(&o).Parse(tc.args); err == nil {
				err = o.check()
				if err == nil && o.run.addrs != 1<<uint(o.logBlocks) {
					t.Errorf("%s %v: address range = %d", tc.mode, tc.args, o.run.addrs)
				}
			}
		}
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s %v: refused: %v", tc.mode, tc.args, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s %v: accepted", tc.mode, tc.args)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s %v: error %q does not name %s", tc.mode, tc.args, err, tc.want)
		}
	}
}

// TestServeListensOnLoopbackByDefault: with no flags, both listeners bind
// the loopback interface only. Serving every interface is a choice the
// operator makes by passing an address.
func TestServeListensOnLoopbackByDefault(t *testing.T) {
	var o serveOpts
	if err := serveFlags(&o).Parse(nil); err != nil {
		t.Fatal(err)
	}
	for flagName, addr := range map[string]string{"-addr": o.addr, "-listen-binary": o.listenBin} {
		host, _, err := net.SplitHostPort(addr)
		if err != nil {
			t.Fatalf("%s default %q: %v", flagName, addr, err)
		}
		if ip := net.ParseIP(host); ip == nil || !ip.IsLoopback() {
			t.Errorf("%s defaults to %q, which binds beyond loopback", flagName, addr)
		}
	}
}
