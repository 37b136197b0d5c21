//go:build ignore

// gen writes the v1 compatibility corpus: one durable 2-shard store per
// backend, filled by a fixed op script that overwrites some blocks, then
// snapshotted and closed, plus manifest.json mapping every written address
// to the SHA-256 of its final block contents. TestCompatCorpus resumes
// each one with the same Config and checks every digest.
//
// The committed fixtures are never regenerated: they are what an older
// build left on disk. A change to the durable format adds a v2-* corpus
// (a copy of this program with the new name) and keeps v1 resuming, or
// refusing with a named error.
//
// Run from the repository root:
//
//	go run ./internal/store/testdata/compat/gen.go
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"

	"freecursive"
	"freecursive/internal/store"
)

// fixtures mirrors compatFixtures in compat_test.go.
var fixtures = []struct {
	dir string
	cfg store.Config
}{
	{"v1-path", store.Config{Shards: 2, Blocks: 128, ORAM: freecursive.Config{Seed: 1}}},
	{"v1-bhoram", store.Config{Shards: 2, Blocks: 64, ORAM: freecursive.Config{Seed: 1, Backend: "bhoram", StashCapacity: 32}}},
}

func main() {
	root := filepath.Join("internal", "store", "testdata", "compat")
	for _, f := range fixtures {
		dir := filepath.Join(root, f.dir)
		if _, err := os.Stat(dir); err == nil {
			log.Fatalf("%s exists: fixtures are never regenerated", dir)
		}
		if err := write(dir, f.cfg); err != nil {
			log.Fatalf("%s: %v", f.dir, err)
		}
	}
}

// write runs the op script against a fresh store in dir: three quarters of
// the address space written once, every third of those overwritten with a
// payload of another length, and reads in between.
func write(dir string, cfg store.Config) error {
	cfg.DataDir = filepath.Join(dir, "store")
	s, err := store.New(cfg)
	if err != nil {
		return err
	}
	n := s.Blocks()
	var written []uint64
	for i := uint64(0); i < n*3/4; i++ {
		addr := (i * 37) % n
		if _, err := s.Put(addr, []byte(fmt.Sprintf("v1 block %d written first", addr))); err != nil {
			return err
		}
		written = append(written, addr)
		if _, err := s.Get((addr + 1) % n); err != nil {
			return err
		}
	}
	for i, addr := range written {
		if i%3 == 0 {
			if _, err := s.Put(addr, []byte(fmt.Sprintf("v1 block %d overwritten", addr))); err != nil {
				return err
			}
		}
	}
	manifest := make(map[string]string, len(written))
	for _, addr := range written {
		b, err := s.Get(addr)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(b)
		manifest[strconv.FormatUint(addr, 10)] = hex.EncodeToString(sum[:])
	}
	if err := s.Snapshot(); err != nil {
		return err
	}
	if err := s.Close(); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(manifest, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), append(raw, '\n'), 0o644)
}
