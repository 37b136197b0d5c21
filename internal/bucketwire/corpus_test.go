package bucketwire

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The seed corpus under testdata/fuzz/ is generated from the real encoder
// and committed, so every `go test` run replays it as regular test cases
// and the CI fuzz-smoke step starts from canonical frames instead of
// rediscovering the format from nothing. Regenerate after a format change
// with:
//
//	ORAM_WRITE_FUZZ_CORPUS=1 go test ./internal/bucketwire -run TestWriteSeedCorpus
func TestWriteSeedCorpus(t *testing.T) {
	if os.Getenv("ORAM_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set ORAM_WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz seeds")
	}
	var e Encoder
	var reqs, resps [][]byte
	for i, r := range requestSeeds {
		frame, err := e.Request(uint64(i), r)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, bytes.Clone(frame[4:]))
	}
	for i, r := range responseSeeds {
		frame, err := e.Response(uint64(i), r)
		if err != nil {
			t.Fatal(err)
		}
		resps = append(resps, bytes.Clone(frame[4:]))
	}
	writeCorpus(t, "FuzzDecodeRequest", append(reqs, garbageRequest))
	writeCorpus(t, "FuzzDecodeResponse", append(resps, garbageResponse))
}

// The one seed per target that is garbage on purpose, so the fuzzer also
// starts from bytes the decoder must refuse.
var (
	garbageRequest  = bytes.Repeat([]byte{0xFF}, 48)
	garbageResponse = bytes.Repeat([]byte{0x00}, 48)
)

// TestSeedCorpusCommitted keeps the committed corpus from silently
// vanishing or going stale: the fuzz targets rely on it for format coverage
// in plain test runs, so every seed but the garbage one must decode — a
// format change that leaves old seeds behind fails here.
func TestSeedCorpusCommitted(t *testing.T) {
	targets := []struct {
		name    string
		garbage []byte
		decode  func(p []byte) error
	}{
		{"FuzzDecodeRequest", garbageRequest, func(p []byte) error {
			var d Decoder
			_, _, err := d.Request(p)
			return err
		}},
		{"FuzzDecodeResponse", garbageResponse, func(p []byte) error {
			var d Decoder
			_, _, err := d.Response(p)
			return err
		}},
	}
	for _, tc := range targets {
		dir := filepath.Join("testdata", "fuzz", tc.name)
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) == 0 {
			t.Errorf("no committed seed corpus for %s (err=%v); regenerate with ORAM_WRITE_FUZZ_CORPUS=1", tc.name, err)
			continue
		}
		for _, e := range entries {
			p := readSeed(t, filepath.Join(dir, e.Name()))
			if bytes.Equal(p, tc.garbage) {
				continue
			}
			if err := tc.decode(p); err != nil {
				t.Errorf("%s/%s does not decode: %v; regenerate with ORAM_WRITE_FUZZ_CORPUS=1", tc.name, e.Name(), err)
			}
		}
	}
}

// readSeed parses one committed seed file: the fuzz-corpus header line,
// then a single quoted []byte value.
func readSeed(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body, ok := strings.CutPrefix(string(b), "go test fuzz v1\n[]byte(")
	if !ok {
		t.Fatalf("%s: not a single-[]byte fuzz seed", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(body), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// writeCorpus replaces fuzzName's committed seeds with entries.
func writeCorpus(t *testing.T, fuzzName string, entries [][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", fuzzName)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(e)) + ")\n"
		path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(e))
	}
}
