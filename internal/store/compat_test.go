package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"freecursive"
)

// compatFixtures are the committed durable stores under testdata/compat,
// each with the Config it was written with (testdata/compat/gen.go holds
// the op script). They are never regenerated: a format change adds v2-*.
var compatFixtures = []struct {
	dir string
	cfg Config
}{
	{"v1-path", Config{Shards: 2, Blocks: 128, ORAM: freecursive.Config{Seed: 1}}},
	{"v1-bhoram", Config{Shards: 2, Blocks: 64, ORAM: freecursive.Config{Seed: 1, Backend: "bhoram", StashCapacity: 32}}},
}

// openFixture copies fixture dir's store into a fresh directory, applies
// edit to the copy, and resumes it. It returns the store, which the caller
// closes, and the manifest: address -> SHA-256 of the block's contents.
func openFixture(t *testing.T, dir string, cfg Config, edit func(dataDir string)) (*Store, map[uint64]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "compat", dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var byName map[string]string
	if err := json.Unmarshal(raw, &byName); err != nil || len(byName) == 0 {
		t.Fatalf("manifest: %d entries, %v", len(byName), err)
	}
	want := make(map[uint64]string, len(byName))
	for k, v := range byName {
		addr, err := strconv.ParseUint(k, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		want[addr] = v
	}
	cfg.DataDir = filepath.Join(t.TempDir(), "store")
	if err := os.CopyFS(cfg.DataDir, os.DirFS(filepath.Join("testdata", "compat", dir, "store"))); err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(cfg.DataDir)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("resume %s: %v", dir, err)
	}
	return s, want
}

// digestMismatches reads every address of s and lists those whose contents
// disagree with want; an address missing from want must read as zeros.
func digestMismatches(s *Store, want map[uint64]string) []string {
	zero := sha256.Sum256(make([]byte, s.BlockBytes()))
	var bad []string
	for addr := uint64(0); addr < s.Blocks(); addr++ {
		b, err := s.Get(addr)
		if err != nil {
			bad = append(bad, fmt.Sprintf("block %d: %v", addr, err))
			continue
		}
		w, ok := want[addr]
		if !ok {
			w = hex.EncodeToString(zero[:])
		}
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != w {
			bad = append(bad, fmt.Sprintf("block %d: digest %x, want %s", addr, sum, w))
		}
	}
	return bad
}

// TestCompatCorpus resumes every committed durable store with the current
// code and checks each block against the manifest, then proves the resumed
// store still works as a durable store: write, snapshot, close, resume and
// read back. A durable-format change that silently loses or alters blocks
// fails here instead of in a deployment.
func TestCompatCorpus(t *testing.T) {
	for _, f := range compatFixtures {
		t.Run(f.dir, func(t *testing.T) {
			s, want := openFixture(t, f.dir, f.cfg, nil)
			if bad := digestMismatches(s, want); len(bad) > 0 {
				t.Fatalf("%d of %d blocks wrong after resume, first: %s", len(bad), s.Blocks(), bad[0])
			}

			cfg := f.cfg
			cfg.DataDir = s.dataDir
			bb := s.BlockBytes()
			for addr := uint64(0); addr < s.Blocks(); addr += 5 {
				v := val(addr, bb)
				if _, err := s.Put(addr, v); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(v)
				want[addr] = hex.EncodeToString(sum[:])
			}
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatalf("second resume: %v", err)
			}
			defer s.Close()
			if bad := digestMismatches(s, want); len(bad) > 0 {
				t.Fatalf("%d of %d blocks wrong after the second resume, first: %s", len(bad), s.Blocks(), bad[0])
			}
		})
	}
}

// TestCompatCorpusMissingState: New starts a shard without a state.json
// fresh, so a corpus that lost one must show up as wrong blocks — the
// digests, not New, are what catch it.
func TestCompatCorpusMissingState(t *testing.T) {
	f := compatFixtures[0]
	s, want := openFixture(t, f.dir, f.cfg, func(dataDir string) {
		if err := os.Remove(filepath.Join(shardDir(dataDir, 1), stateFile)); err != nil {
			t.Fatal(err)
		}
	})
	defer s.Close()
	if bad := digestMismatches(s, want); len(bad) == 0 {
		t.Fatal("every digest matched with shard 1's snapshot missing")
	}
}
