package backendtest

// System-level conformance: everything that needs a full frontend stacked
// on the backend — PMMAC tamper fail-stop and the trusted-state
// snapshot/resume round trip. These helpers are also the shared plumbing
// the adversary campaigns and durability tests use to run their matrices
// over core.BackendKinds().

import (
	"bytes"
	"errors"
	"testing"

	"freecursive/internal/adversary"
	"freecursive/internal/backend"
	"freecursive/internal/backend/bhoram"
	"freecursive/internal/core"
	"freecursive/internal/crypt"
	"freecursive/internal/mem"
)

// SystemParams returns the standard conformance-system parameters for a
// backend kind: PIC with PMMAC, functional backends, global-seed
// encryption, and a stash/cache capacity small enough that sustained
// traffic pushes blocks into untrusted memory for BOTH constructions
// (the bucket-hash backend only materializes levels when its cache
// capacity is exceeded). The treetop budget is scaled down with the rest:
// 4 KB caches the top three of the tree's ten levels, where the default
// would swallow seven and most of what the tests write.
func SystemParams(kind string) core.Params {
	return core.Params{
		Scheme: core.SchemePIC, Backend: kind,
		NBlocks: 1 << 10, DataBytes: 64, StashCap: 32, TreetopBytes: 4 << 10,
		OnChipBudgetBytes: 256, PLBCapacityBytes: 1 << 10,
		Functional: true, EncScheme: crypt.SeedGlobal, Seed: 99,
	}
}

// BuildSystem builds a conformance system over kind and populates blocks
// [0, n) with the canonical payload {byte(a), 0x5c}.
func BuildSystem(t testing.TB, kind string, n uint64) *core.System {
	t.Helper()
	sys, err := core.Build(SystemParams(kind))
	if err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < n; a++ {
		if _, err := sys.Frontend.Access(a, true, []byte{byte(a), 0x5c}); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// BackendStore returns backend 0's untrusted store and its bucket count —
// the adversary's attack surface, whichever construction is behind it.
func BackendStore(t testing.TB, sys *core.System) (mem.Backend, uint64) {
	t.Helper()
	switch be := sys.Backends[0].(type) {
	case *backend.PathORAM:
		return be.Store(), be.Geometry().Buckets()
	case *bhoram.BucketHash:
		return be.Store(), be.TotalBuckets()
	default:
		t.Fatalf("backend 0 is %T; conformance systems are functional", sys.Backends[0])
		return nil, 0
	}
}

// Sweep reads blocks [0, n), returning the first error.
func Sweep(sys *core.System, n uint64) error {
	for a := uint64(0); a < n; a++ {
		if _, err := sys.Frontend.Access(a, false, nil); err != nil {
			return err
		}
	}
	return nil
}

// RunSystemConformance runs the frontend-level suite over one backend
// kind.
func RunSystemConformance(t *testing.T, kind string) {
	t.Run("TamperFailStop", func(t *testing.T) { runTamperFailStop(t, kind) })
	t.Run("SnapshotResume", func(t *testing.T) { runSnapshotResume(t, kind) })
}

// runTamperFailStop corrupts every materialized bucket under a live PMMAC
// system and requires the next sweep to fail-stop with ErrIntegrity —
// the §6.5.1 guarantee, independent of which construction holds the
// buckets. Blocks still resident in trusted memory (stash/cache) are
// unaffected by definition, so the sweep covers enough addresses that
// some must have been evicted.
func runTamperFailStop(t *testing.T, kind string) {
	const n = 200
	sys := BuildSystem(t, kind, n)
	st, buckets := BackendStore(t, sys)
	if (adversary.Garbler{}).GarbleAll(st, buckets) == 0 {
		t.Fatalf("%s: nothing materialized in untrusted memory to corrupt", kind)
	}
	if err := Sweep(sys, n); !errors.Is(err, core.ErrIntegrity) {
		t.Fatalf("%s: full-memory corruption undetected (err=%v)", kind, err)
	}
}

// runSnapshotResume is the durable round trip at the core level: write,
// snapshot trusted state, tear down, rebuild over the same bucket files,
// restore, and read everything back — then keep writing.
func runSnapshotResume(t *testing.T, kind string) {
	const n = 120
	p := SystemParams(kind)
	p.DataDir = t.TempDir()
	sys, err := core.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < n; a++ {
		if _, err := sys.Frontend.Access(a, true, []byte{byte(a), 0x77}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	sys, err = core.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	for a := uint64(0); a < n; a++ {
		got, err := sys.Frontend.Access(a, false, nil)
		if err != nil {
			t.Fatalf("read %d after resume: %v", a, err)
		}
		if !bytes.Equal(got[:2], []byte{byte(a), 0x77}) {
			t.Fatalf("block %d = %x after resume", a, got[:2])
		}
	}
	for a := uint64(0); a < n; a++ {
		if _, err := sys.Frontend.Access(a+512, true, []byte{0xbb, byte(a)}); err != nil {
			t.Fatalf("write after resume: %v", err)
		}
	}
	for a := uint64(0); a < n; a++ {
		got, err := sys.Frontend.Access(a+512, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:2], []byte{0xbb, byte(a)}) {
			t.Fatalf("fresh block %d mismatch after resume", a+512)
		}
	}

	// A snapshot from one backend kind must not restore into the other.
	for _, other := range core.BackendKinds() {
		if other == kind {
			continue
		}
		q := SystemParams(other)
		q.DataDir = t.TempDir()
		osys, err := core.Build(q)
		if err != nil {
			t.Fatal(err)
		}
		defer osys.Close()
		if err := osys.Restore(snap); err == nil {
			t.Fatalf("snapshot for %q restored into %q", kind, other)
		}
	}
}
