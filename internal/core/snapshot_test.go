package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"freecursive/internal/backend"
	"freecursive/internal/mem"
)

// snapshotTestParams is a small functional PIC system: PLB + compression +
// PMMAC, the configuration whose trusted state exercises every snapshot
// field (stash, PLB residents, counter-mode on-chip PosMap, seed register).
// The on-chip budget is squeezed so the recursion is real (H > 1): the
// snapshot must then carry live PLB residents, not just the stash.
func snapshotTestParams(dataDir string) Params {
	return Params{
		Scheme:            SchemePIC,
		NBlocks:           1 << 14,
		Functional:        true,
		Seed:              7,
		OnChipBudgetBytes: 1 << 10,
		DataDir:           dataDir,
	}
}

// TestSnapshotImmutableUnderTraffic is the aliasing regression for the
// periodic-snapshot path: a Snapshot value captured while the controller
// keeps running must be a deep copy. Before stash.Blocks and plb.Entries
// deep-copied their payloads, continued traffic mutated (and recycled) the
// very buffers the held snapshot pointed at, so serializing it later wrote
// post-snapshot bytes.
func TestSnapshotImmutableUnderTraffic(t *testing.T) {
	sys, err := Build(snapshotTestParams(""))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rng := rand.New(rand.NewPCG(4, 4))
	n := snapshotTestParams("").NBlocks
	for i := 0; i < 800; i++ {
		if _, err := sys.Frontend.Access(rng.Uint64()%n, true, []byte{byte(i), 0x77}); err != nil {
			t.Fatal(err)
		}
	}
	// Path ORAM's greedy eviction usually leaves the stash empty between
	// accesses, so plant a few residents through the backend's append op —
	// the same way PLB victims re-enter the stash — under tags no real
	// access uses. Later traffic evicts them and recycles their buffers,
	// which is exactly what an aliasing snapshot cannot survive.
	p := sys.Backends[0].(*backend.PathORAM)
	for i := uint64(0); i < 4; i++ {
		if _, err := p.Access(backend.Request{
			Op: backend.OpAppend, Addr: Tag(31, i), Leaf: i, Data: []byte{0xA5, byte(i)},
		}); err != nil {
			t.Fatal(err)
		}
	}

	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The scenario is only meaningful if the snapshot actually carries
	// aliasing-prone state: stash blocks and PLB residents.
	if len(snap.Backends) == 0 || len(snap.Backends[0].Stash) == 0 {
		t.Fatal("test setup produced an empty stash; snapshot carries nothing to protect")
	}
	if len(snap.PLB) == 0 {
		t.Fatal("test setup produced an empty PLB; snapshot carries nothing to protect")
	}
	j1, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}

	// The controller keeps serving; every access mutates stash blocks and
	// PLB-resident PosMap blocks in place.
	for i := 0; i < 800; i++ {
		if _, err := sys.Frontend.Access(rng.Uint64()%n, i%2 == 0, []byte{byte(i), 0x99}); err != nil {
			t.Fatal(err)
		}
	}

	j2, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("a held Snapshot changed under continued traffic: it aliases live controller state")
	}
}

// TestSnapshotResumeAfterMutation is the end-to-end -snapshot-interval
// scenario: trusted state is snapshotted and the bucket files captured,
// the controller keeps mutating, and a later process resumes from the
// captured pair. The resumed controller must serve exactly the
// snapshot-time values — under PMMAC, corrupt snapshot payloads would
// surface as integrity violations or wrong data.
func TestSnapshotResumeAfterMutation(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	sys, err := Build(snapshotTestParams(dir1))
	if err != nil {
		t.Fatal(err)
	}

	const addrs = 200
	val := func(a uint64, gen byte) []byte { return []byte{byte(a), byte(a >> 8), gen} }
	for a := uint64(0); a < addrs; a++ {
		if _, err := sys.Frontend.Access(a, true, val(a, 1)); err != nil {
			t.Fatal(err)
		}
	}

	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Capture the untrusted half: sync and copy the bucket page files, as a
	// backup taken at the same instant as the trusted-state snapshot would.
	for i, be := range sys.Backends {
		fs, ok := be.(*backend.PathORAM).Store().(*mem.FileStore)
		if !ok {
			t.Fatalf("backend %d store is not a FileStore", i)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir1, "tree-*.oram"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no bucket files found: %v", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir2, filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Round-trip the snapshot through its serialized form, as the durable
	// store does, then keep mutating the ORIGINAL controller: overwrite
	// every block so stale snapshot aliases would now hold generation-2
	// bytes (or recycled garbage).
	ser, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < addrs; a++ {
		if _, err := sys.Frontend.Access(a, true, val(a, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume from the captured pair in a fresh process-equivalent.
	sys2, err := Build(snapshotTestParams(dir2))
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	var snap2 Snapshot
	if err := json.Unmarshal(ser, &snap2); err != nil {
		t.Fatal(err)
	}
	if err := sys2.Restore(&snap2); err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < addrs; a++ {
		got, err := sys2.Frontend.Access(a, false, nil)
		if err != nil {
			t.Fatalf("addr %d after resume: %v", a, err)
		}
		want := val(a, 1)
		if !bytes.Equal(got[:len(want)], want) {
			t.Fatalf("addr %d after resume = %x, want generation-1 value %x", a, got[:len(want)], want)
		}
	}
	if fmt.Sprint(sys2.Violation()) != "<nil>" {
		t.Fatalf("resumed controller latched a violation: %v", sys2.Violation())
	}
}

// TestRestoreRejectsStashLeafOutsideTree: a snapshot file is outside input.
// A stash block whose leaf is not a label of the tree must fail the restore,
// not enter a stash whose eviction would file it under the label's low bits.
func TestRestoreRejectsStashLeafOutsideTree(t *testing.T) {
	sys, err := Build(snapshotTestParams(""))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	leaves := sys.Backends[0].(*backend.PathORAM).Geometry().Leaves()
	snap.Backends[0].Stash = append(snap.Backends[0].Stash,
		StashBlockState{Addr: 1 << 40, Leaf: leaves, Data: make([]byte, 8)})

	sys2, err := Build(snapshotTestParams(""))
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	if err := sys2.Restore(snap); err == nil {
		t.Fatal("restore accepted a stash block with an out-of-range leaf")
	}
}
