package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"freecursive/internal/backend"
	"freecursive/internal/bucketd"
	"freecursive/internal/crypt"
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
	// The top of the tree is trusted state too: the generation-1 blocks that
	// sank no further than the treetop exist nowhere but in this snapshot.
	if bs := snap.Backends[0]; bs.TreetopLevels == 0 || len(bs.Treetop) == 0 {
		t.Fatalf("snapshot carries a treetop of %d levels and %d buckets; nothing of it to resume", bs.TreetopLevels, len(bs.Treetop))
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

	// Resume from the captured pair in a fresh process-equivalent — one
	// configured without a treetop: the budget is not part of what must
	// match, and the snapshot's depth is what the resumed tree runs with.
	params2 := snapshotTestParams(dir2)
	params2.TreetopBytes = -1
	sys2, err := Build(params2)
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
	if got := sys2.Backends[0].(*backend.PathORAM).TreetopLevels(); got != snap.Backends[0].TreetopLevels {
		t.Fatalf("resumed with %d levels cached, the snapshot has %d", got, snap.Backends[0].TreetopLevels)
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

// TestRestoreRejectsDuplicateStashBlock: a snapshot stash that lists one
// address twice, or holds a payload longer than a block, is one no run of
// accesses could produce. Restore refuses it with an error naming the
// backend and leaves the system as it was built: empty stash, same RNG.
func TestRestoreRejectsDuplicateStashBlock(t *testing.T) {
	sys, err := Build(snapshotTestParams(""))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	p := sys.Backends[0].(*backend.PathORAM)
	if _, err := p.Access(backend.Request{Op: backend.OpAppend, Addr: Tag(31, 1), Leaf: 0, Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	g := p.Geometry()
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}

	for name, breakIt := range map[string]func(bs *BackendState){
		"an address listed twice": func(bs *BackendState) {
			dup := bs.Stash[0]
			dup.Data = bytes.Repeat([]byte{0xEE}, g.BlockBytes)
			bs.Stash = append(bs.Stash, dup)
		},
		"a payload larger than a block": func(bs *BackendState) {
			bs.Stash[0].Data = make([]byte, g.BlockBytes+1)
		},
	} {
		t.Run(name, func(t *testing.T) {
			var snap Snapshot
			if err := json.Unmarshal(raw, &snap); err != nil {
				t.Fatal(err)
			}
			if len(snap.Backends[0].Stash) == 0 {
				t.Fatal("set-up left no stash block to break")
			}
			breakIt(&snap.Backends[0])
			sys2, err := Build(snapshotTestParams(""))
			if err != nil {
				t.Fatal(err)
			}
			defer sys2.Close()
			rng, err := sys2.PCG.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			err = sys2.Restore(&snap)
			if err == nil || !strings.Contains(err.Error(), "backend 0") {
				t.Fatalf("restore: %v, want a refusal naming backend 0", err)
			}
			if n := sys2.Backends[0].(*backend.PathORAM).Stash().Len(); n != 0 {
				t.Fatalf("the refused restore left %d blocks in the stash", n)
			}
			if after, _ := sys2.PCG.MarshalBinary(); !bytes.Equal(after, rng) {
				t.Fatal("the refused restore changed the RNG")
			}
		})
	}
}

// TestRestoreRejectsMalformedTreetop: the treetop a snapshot carries is read
// by every later access without a second look, so Restore takes only one
// that accesses could have produced. Each way of breaking it is refused
// with backend.ErrTreetop.
func TestRestoreRejectsMalformedTreetop(t *testing.T) {
	sys, err := Build(snapshotTestParams(""))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for a := uint64(0); a < 300; a++ {
		if _, err := sys.Frontend.Access(a, true, []byte{byte(a)}); err != nil {
			t.Fatal(err)
		}
	}
	p := sys.Backends[0].(*backend.PathORAM)
	if _, err := p.Access(backend.Request{Op: backend.OpAppend, Addr: Tag(31, 1), Leaf: 0, Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	g := p.Geometry()
	ser := func() []byte {
		snap, err := sys.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}()
	block := func(addr, leaf uint64) StashBlockState {
		return StashBlockState{Addr: addr, Leaf: leaf, Data: make([]byte, g.BlockBytes)}
	}
	fresh := uint64(1) << 40 // an address nothing else uses

	for name, breakIt := range map[string]func(bs *BackendState){
		"more than Z blocks in a bucket": func(bs *BackendState) {
			bk := &bs.Treetop[0]
			for i := 0; len(bk.Blocks) <= g.Z; i++ {
				bk.Blocks = append(bk.Blocks, block(fresh+uint64(i), bk.Blocks[0].Leaf))
			}
		},
		"a block whose path misses its bucket": func(bs *BackendState) {
			// Bucket 1 is the root's left child: no path to the last leaf crosses it.
			bs.Treetop = []TreetopBucketState{{Index: 1, Blocks: []StashBlockState{block(fresh, g.Leaves()-1)}}}
		},
		"a block whose leaf is outside the tree": func(bs *BackendState) {
			bs.Treetop[0].Blocks[0].Leaf = g.Leaves()
		},
		"an address that is also in the stash": func(bs *BackendState) {
			bs.Treetop[0].Blocks[0].Addr = bs.Stash[0].Addr
		},
		"an address cached twice": func(bs *BackendState) {
			last := len(bs.Treetop) - 1
			bs.Treetop[last].Blocks[0].Addr = bs.Treetop[0].Blocks[0].Addr
		},
		"a bucket listed twice": func(bs *BackendState) {
			bs.Treetop = append(bs.Treetop, TreetopBucketState{Index: bs.Treetop[0].Index})
		},
		"a bucket below the cached levels": func(bs *BackendState) {
			bs.Treetop[0].Index = 1<<uint(bs.TreetopLevels) - 1
		},
		"a payload larger than a block": func(bs *BackendState) {
			bs.Treetop[0].Blocks[0].Data = make([]byte, g.BlockBytes+1)
		},
		"more levels than the tree has above its leaves": func(bs *BackendState) {
			bs.TreetopLevels = g.L + 1
		},
		"a negative level count": func(bs *BackendState) {
			bs.TreetopLevels = -1
		},
	} {
		t.Run(name, func(t *testing.T) {
			var snap Snapshot
			if err := json.Unmarshal(ser, &snap); err != nil {
				t.Fatal(err)
			}
			bs := &snap.Backends[0]
			if len(bs.Stash) == 0 || len(bs.Treetop) < 2 || len(bs.Treetop[0].Blocks) == 0 || len(bs.Treetop[len(bs.Treetop)-1].Blocks) == 0 {
				t.Fatal("set-up left too little in the snapshot to break")
			}
			breakIt(bs)
			sys2, err := Build(snapshotTestParams(""))
			if err != nil {
				t.Fatal(err)
			}
			defer sys2.Close()
			if err := sys2.Restore(&snap); !errors.Is(err, backend.ErrTreetop) {
				t.Fatalf("restore: %v, want an error wrapping backend.ErrTreetop", err)
			}
		})
	}
}

// copyFixture copies testdata/<name> into a fresh directory: resuming
// rewrites the bucket file.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	files, err := filepath.Glob(filepath.Join("testdata", name, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("fixture %s: %v (%d files)", name, err, len(files))
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestResumeSnapshotFromBeforeTheTreetop: testdata/pre_treetop is a durable
// PIC ORAM — state.json and its bucket file — written by the commit before
// the treetop cache existed (64 blocks, each written three times, the last
// as {addr, 3, 0x5c}). Its snapshot names no treetop and its buckets hold
// the whole tree, so it resumes, under the new default budget, with no
// level cached: every block reads back, further writes land, and the
// snapshots it writes from then on say zero levels too.
func TestResumeSnapshotFromBeforeTheTreetop(t *testing.T) {
	dir := copyFixture(t, "pre_treetop")
	raw, err := os.ReadFile(filepath.Join(dir, "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("treetop")) || bytes.Contains(raw, []byte("Treetop")) {
		t.Fatal("the fixture was rewritten by a build that knows the treetop")
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	params := Params{
		Scheme: SchemePIC, NBlocks: 1 << 6, Functional: true, Seed: 7, EncScheme: crypt.SeedGlobal,
		OnChipBudgetBytes: 64, PLBCapacityBytes: 1 << 10, DataDir: dir,
	}
	sys, err := Build(params)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	p := sys.Backends[0].(*backend.PathORAM)
	if p.TreetopLevels() == 0 {
		t.Fatal("the default budget caches nothing of this tree; the test would prove nothing")
	}
	if err := sys.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	if p.TreetopLevels() != 0 || p.TreetopBytes() != 0 {
		t.Fatalf("resumed with %d levels (%d bytes) cached, want none", p.TreetopLevels(), p.TreetopBytes())
	}
	for a := uint64(0); a < 1<<6; a++ {
		got, err := sys.Frontend.Access(a, true, []byte{byte(a), 4})
		if err != nil {
			t.Fatalf("block %d: %v", a, err)
		}
		if want := []byte{byte(a), 3, 0x5c}; !bytes.Equal(got[:3], want) {
			t.Fatalf("block %d = %x, want %x", a, got[:3], want)
		}
	}
	again, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if bs := again.Backends[0]; bs.TreetopLevels != 0 || len(bs.Treetop) != 0 {
		t.Fatalf("the resumed system snapshots a treetop of %d levels", bs.TreetopLevels)
	}
	if got, want := sys.Counters.TotalBytes()-snap.Counters.TotalBytes(), (sys.Counters.BackendAccesses-snap.Counters.BackendAccesses)*backend.PathWireBytes(p.Geometry()); got != want {
		t.Fatalf("%d bytes charged since the resume, want full paths: %d", got, want)
	}
}

// TestStaleSnapshotOverNewerBucketsIsDetected: a snapshot — treetop and all
// — restored over buckets that moved on without it is a replay of trusted
// state against fresh memory. PMMAC's counters, which the snapshot rolled
// back with everything else, no longer match the MACs memory holds: an
// access fails with ErrIntegrity and nothing stale is served.
func TestStaleSnapshotOverNewerBucketsIsDetected(t *testing.T) {
	for _, scheme := range []Scheme{SchemePI, SchemePIC} {
		t.Run(scheme.String(), func(t *testing.T) {
			params := snapshotTestParams(t.TempDir())
			params.Scheme = scheme
			params.NBlocks = 1 << 10
			params.TreetopBytes = 4 << 10 // three of ten levels: most blocks live in the file
			sys, err := Build(params)
			if err != nil {
				t.Fatal(err)
			}
			const addrs = 200
			write := func(gen byte) {
				for a := uint64(0); a < addrs; a++ {
					if _, err := sys.Frontend.Access(a, true, []byte{byte(a), gen}); err != nil {
						t.Fatal(err)
					}
				}
			}
			write(1)
			stale, err := sys.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if len(stale.Backends[0].Treetop) == 0 {
				t.Fatal("the stale snapshot carries no treetop")
			}
			write(2)
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}

			sys, err = Build(params)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			if err := sys.Restore(stale); err != nil {
				t.Fatal(err)
			}
			for a := uint64(0); a < addrs; a++ {
				got, err := sys.Frontend.Access(a, false, nil)
				if errors.Is(err, ErrIntegrity) {
					return
				}
				if err != nil {
					t.Fatalf("block %d: %v, want ErrIntegrity or the snapshot's value", a, err)
				}
				// Until an access needs a bucket that moved on, what is
				// served comes out of the restored trusted state.
				if want := []byte{byte(a), 1}; !bytes.Equal(got[:2], want) {
					t.Fatalf("block %d = %x: neither rejected nor the snapshot's %x", a, got[:2], want)
				}
			}
			t.Fatal("a stale snapshot over newer buckets went unnoticed")
		})
	}
}

// TestSnapshotRefusedAfterStorageFault: a write to untrusted memory that
// fails leaves older buckets there than the trusted state accounts for, so
// a snapshot taken afterwards would match no memory image. The backend
// stops at the fault and Snapshot refuses, with an error wrapping
// mem.ErrIO, on both constructions.
func TestSnapshotRefusedAfterStorageFault(t *testing.T) {
	for _, kind := range BackendKinds() {
		t.Run(kind, func(t *testing.T) {
			// A Path ORAM access is a read frame then a write frame, so an
			// even FailEvery refuses a write-back; the remote memory reports
			// it from the next operation. The bucket-hash backend reaches
			// memory once its cache (the stash capacity) has filled.
			addr, _ := startBucketd(t, bucketd.Config{FailEvery: 60})
			p := windowParams(addr, "core/fault-"+kind)
			p.Backend, p.StashCap = kind, 32
			sys, err := Build(p)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			if _, err := sys.Snapshot(); err != nil {
				t.Fatalf("snapshot of a healthy system: %v", err)
			}

			var fault error
			for a := uint64(0); a < 2000 && fault == nil; a++ {
				_, fault = sys.Frontend.Access(a, true, []byte{byte(a)})
			}
			if !errors.Is(fault, mem.ErrIO) {
				t.Fatalf("2000 writes over a memory that refuses every 60th frame: %v, want mem.ErrIO", fault)
			}
			if kind == BackendPath && !strings.Contains(fault.Error(), "write-back failed") {
				t.Fatalf("the refused frame was not a write-back: %v", fault)
			}
			if _, err := sys.Snapshot(); !errors.Is(err, mem.ErrIO) {
				t.Fatalf("Snapshot after a storage fault: %v, want it refused wrapping mem.ErrIO", err)
			}
			if _, err := sys.Frontend.Access(0, false, nil); !errors.Is(err, mem.ErrIO) {
				t.Fatalf("access after a storage fault: %v, want it refused wrapping mem.ErrIO", err)
			}
		})
	}
}

// TestSnapshotRejectsUnservedConfigs: only what freecursive.New builds
// snapshots. The accounting backend has no real tree to persist against, so
// it neither snapshots nor takes durable memory, and the bucket-hash
// construction has no accounting mode at all; the recursive baseline's
// frontend has no snapshot form.
func TestSnapshotRejectsUnservedConfigs(t *testing.T) {
	p := Params{Scheme: SchemePIC, NBlocks: 1 << 10, Seed: 16}
	sys, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Snapshot(); err == nil {
		t.Error("snapshot of an accounting system should fail")
	}
	q := p
	q.DataDir = t.TempDir()
	if _, err := Build(q); err == nil {
		t.Error("DataDir with the accounting backend should fail")
	}
	q = p
	q.Backend = BackendBucketHash
	if _, err := Build(q); err == nil {
		t.Error("the bucket-hash backend without Functional should fail")
	}
	q = p
	q.Scheme, q.Functional = SchemeRecursive, true
	if sys, err = Build(q); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Snapshot(); err == nil {
		t.Error("snapshot of a recursive-baseline system should fail")
	}
}
