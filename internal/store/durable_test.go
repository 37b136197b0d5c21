package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"freecursive"
)

func durableCfg(dir string) Config {
	cfg := lightCfg(2, 1<<9)
	cfg.DataDir = dir
	return cfg
}

// TestDurableStoreRoundTrip: snapshot + reopen through the sharded layer,
// including the batch paths on the resumed store.
func TestDurableStoreRoundTrip(t *testing.T) {
	cfg := durableCfg(t.TempDir())
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bb := s.BlockBytes()
	addrs := make([]uint64, 32)
	vals := make([][]byte, 32)
	for i := range addrs {
		addrs[i] = uint64(i * 13)
		vals[i] = val(addrs[i], bb)
	}
	if _, err := waitAll(s.SubmitBatch(writes(addrs, vals))); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = New(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	got, err := waitAll(s.SubmitBatch(reads(addrs)))
	if err != nil {
		t.Fatalf("batch get after reopen: %v", err)
	}
	for i := range addrs {
		if !bytes.Equal(got[i], vals[i]) {
			t.Fatalf("block %d = %x after reopen, want %x", addrs[i], got[i], vals[i])
		}
	}
	// Every shard directory holds a snapshot and at least one tree file.
	for i := 0; i < s.Shards(); i++ {
		dir := shardDir(cfg.DataDir, i)
		if _, err := os.Stat(filepath.Join(dir, stateFile)); err != nil {
			t.Fatalf("shard %d snapshot missing: %v", i, err)
		}
		trees, _ := filepath.Glob(filepath.Join(dir, "tree-*.oram"))
		if len(trees) == 0 {
			t.Fatalf("shard %d has no bucket files", i)
		}
	}
}

// TestResumeIgnoresRetiredSnapshotKeys pins forward compatibility of the
// trusted-state files: a state.json written before a configuration knob
// was removed still carries its key under "params" (every such key is
// listed in testdata/retired_params.json), and both backends must resume
// from it and read back every block rather than reject it.
func TestResumeIgnoresRetiredSnapshotKeys(t *testing.T) {
	var retired map[string]json.RawMessage
	if raw, err := os.ReadFile("testdata/retired_params.json"); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(raw, &retired); err != nil || len(retired) == 0 {
		t.Fatalf("retired_params.json: %d keys, %v", len(retired), err)
	}
	for _, kind := range []string{"path", "bhoram"} {
		t.Run(kind, func(t *testing.T) {
			cfg := durableCfg(t.TempDir())
			cfg.ORAM.Backend = kind
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			bb := s.BlockBytes()
			addrs := make([]uint64, 48)
			vals := make([][]byte, len(addrs))
			for i := range addrs {
				addrs[i] = uint64(i * 7)
				vals[i] = val(addrs[i], bb)
			}
			if _, err := waitAll(s.SubmitBatch(writes(addrs, vals))); err != nil {
				t.Fatal(err)
			}
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
			shards := s.Shards()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			for i := 0; i < shards; i++ {
				path := filepath.Join(shardDir(cfg.DataDir, i), stateFile)
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				var snap, params map[string]json.RawMessage
				if err := json.Unmarshal(raw, &snap); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(snap["params"], &params); err != nil {
					t.Fatal(err)
				}
				for k, v := range retired {
					if _, live := params[k]; live {
						t.Fatalf("%q is listed as retired but snapshots still write it", k)
					}
					params[k] = v
				}
				if snap["params"], err = json.Marshal(params); err != nil {
					t.Fatal(err)
				}
				if raw, err = json.Marshal(snap); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			s, err = New(cfg)
			if err != nil {
				t.Fatalf("reopen over an old-format snapshot: %v", err)
			}
			defer s.Close()
			got, err := waitAll(s.SubmitBatch(reads(addrs)))
			if err != nil {
				t.Fatal(err)
			}
			for i := range addrs {
				if !bytes.Equal(got[i], vals[i]) {
					t.Fatalf("block %d = %x after resume, want %x", addrs[i], got[i], vals[i])
				}
			}
		})
	}
}

func TestSnapshotRequiresDataDir(t *testing.T) {
	s, err := New(lightCfg(1, 64))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Snapshot(); err == nil {
		t.Fatal("Snapshot without DataDir should fail")
	}
}

// TestSnapshotSkipsQuarantined: a poisoned shard must not be resurrected,
// but its quarantine must not block persisting the healthy shards either.
func TestSnapshotSkipsQuarantined(t *testing.T) {
	cfg := durableCfg(t.TempDir())
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for addr := uint64(0); addr < 32; addr++ {
		if _, err := s.Put(addr, val(addr, s.BlockBytes())); err != nil {
			t.Fatal(err)
		}
	}
	const victim = 0
	if err := s.Quarantine(victim, errors.New("suspect disk")); err != nil {
		t.Fatal(err)
	}
	err = s.Snapshot()
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Snapshot with a quarantined shard = %v, want ErrQuarantined", err)
	}
	// The healthy shard's snapshot landed; the victim's did not.
	if _, err := os.Stat(filepath.Join(shardDir(cfg.DataDir, 1), stateFile)); err != nil {
		t.Fatalf("healthy shard snapshot missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(shardDir(cfg.DataDir, victim), stateFile)); !os.IsNotExist(err) {
		t.Fatalf("quarantined shard snapshot written anyway: %v", err)
	}
}

// TestTruncatedPageFileQuarantinesShard: a page file cut short under a
// running store is a fault in that shard's mapped memory. It must surface as
// the shard's ErrStorage and quarantine — not absent buckets, not a dead
// process — while the other shard serves, Snapshot skips the victim, and
// Close returns.
func TestTruncatedPageFileQuarantinesShard(t *testing.T) {
	// 2^12 blocks of 16 bytes put each shard's data tree well below the
	// treetop cache, so every access reaches the page file.
	cfg := durableCfg(t.TempDir())
	cfg.Blocks = 1 << 12
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bb := s.BlockBytes()
	const victim = 0
	var bad, good uint64
	for addr := uint64(0); addr < 64; addr++ {
		if _, err := s.Put(addr, val(addr, bb)); err != nil {
			t.Fatal(err)
		}
		if s.ShardOf(addr) == victim {
			bad = addr
		} else {
			good = addr
		}
	}

	if err := os.Truncate(filepath.Join(shardDir(cfg.DataDir, victim), "tree-0.oram"), 0); err != nil {
		t.Fatal(err)
	}

	_, err = s.Get(bad)
	if !errors.Is(err, freecursive.ErrStorage) {
		t.Fatalf("Get on the truncated shard = %v, want ErrStorage", err)
	}
	if st := s.ShardState(victim); st != StateQuarantined {
		t.Fatalf("victim state = %v, want quarantined", st)
	}
	if _, err := s.Get(bad); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("second Get on the truncated shard = %v, want ErrQuarantined", err)
	}
	if got, err := s.Get(good); err != nil || !bytes.Equal(got, val(good, bb)) {
		t.Fatalf("Get on the healthy shard = %x, %v", got, err)
	}

	if err := s.Snapshot(); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Snapshot = %v, want ErrQuarantined for the skipped shard", err)
	}
	if _, err := os.Stat(filepath.Join(shardDir(cfg.DataDir, 1), stateFile)); err != nil {
		t.Fatalf("healthy shard snapshot missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(shardDir(cfg.DataDir, victim), stateFile)); !os.IsNotExist(err) {
		t.Fatalf("truncated shard snapshot written anyway: %v", err)
	}
	// Flushing a mapping whose file is gone may or may not fail; either way
	// Close comes back, and with nothing worse than a storage error.
	if err := s.Close(); err != nil && !errors.Is(err, freecursive.ErrStorage) {
		t.Fatalf("Close = %v", err)
	}
}
