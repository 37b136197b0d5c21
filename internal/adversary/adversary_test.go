// End-to-end adversarial campaigns: every strategy from the threat model
// run against a live PIC_X32 ORAM over EVERY backend construction the
// repository ships, asserting PMMAC's §6.5.1 guarantees — plus the §6.4
// seed-rewind experiment showing exactly which encryption scheme leaks.
//
// This is an external test package so it can share the target-building
// plumbing in backendtest (which itself imports this package for the
// trace taps).
package adversary_test

import (
	"errors"
	"math/rand/v2"
	"testing"

	"freecursive/internal/adversary"
	"freecursive/internal/backend"
	"freecursive/internal/backend/backendtest"
	"freecursive/internal/core"
	"freecursive/internal/crypt"
	"freecursive/internal/mem"
	"freecursive/internal/mem/memtest"
	"freecursive/internal/tree"
)

// forEachKind runs an adversary campaign against a freshly built and
// populated system of every backend kind; the campaign sees only the
// untrusted store and the frontend, exactly like the adversary.
func forEachKind(t *testing.T, campaign func(t *testing.T, sys *core.System)) {
	for _, kind := range core.BackendKinds() {
		t.Run(kind, func(t *testing.T) {
			campaign(t, backendtest.BuildSystem(t, kind, 200))
		})
	}
}

func TestBitFlipCampaign(t *testing.T) {
	forEachKind(t, func(t *testing.T, sys *core.System) {
		for _, offset := range []float64{0.2, 0.5, 0.95} {
			st, buckets := backendtest.BackendStore(t, sys)
			n := adversary.BitFlipper{Offset: offset, Mask: 0x80}.FlipAll(st, buckets)
			if n == 0 {
				t.Fatal("nothing to corrupt")
			}
			if err := backendtest.Sweep(sys, 200); !errors.Is(err, core.ErrIntegrity) {
				t.Fatalf("offset %.2f: campaign undetected (err=%v)", offset, err)
			}
			// The controller is latched; later offsets need a fresh target.
			sys = backendtest.BuildSystem(t, sys.Params.Backend, 200)
		}
	})
}

func TestSingleFlipEventuallyCaught(t *testing.T) {
	forEachKind(t, func(t *testing.T, sys *core.System) {
		st, buckets := backendtest.BackendStore(t, sys)
		rng := rand.New(rand.NewPCG(4, 4))
		if _, ok := (adversary.BitFlipper{Offset: 0.7}).FlipOne(st, buckets, rng); !ok {
			t.Fatal("no bucket to flip")
		}
		// A single corrupted bucket may hold dummies or cold blocks; sweeping
		// repeatedly remaps everything and must either (a) trip PMMAC, or (b)
		// never return wrong data. Run several sweeps and require no silent
		// wrong reads.
		for pass := 0; pass < 5; pass++ {
			for a := uint64(0); a < 200; a++ {
				got, err := sys.Frontend.Access(a, false, nil)
				if err != nil {
					if !errors.Is(err, core.ErrIntegrity) {
						t.Fatalf("unexpected error type: %v", err)
					}
					return // detected: done
				}
				if got[0] != byte(a) || got[1] != 0x5c {
					t.Fatalf("SILENT CORRUPTION: block %d reads %x", a, got[:2])
				}
			}
		}
		// Flip landed on dummy bits: acceptable (no integrity statement about
		// bits the processor never consumes).
	})
}

func TestReplayCampaign(t *testing.T) {
	forEachKind(t, func(t *testing.T, sys *core.System) {
		st, buckets := backendtest.BackendStore(t, sys)
		var rec adversary.Recorder
		if rec.Record(st, buckets) == 0 {
			t.Fatal("nothing recorded")
		}
		// Advance state so the snapshot goes stale.
		for a := uint64(0); a < 200; a++ {
			if _, err := sys.Frontend.Access(a, true, []byte{0xee}); err != nil {
				t.Fatal(err)
			}
		}
		rec.Replay(st)
		if err := backendtest.Sweep(sys, 200); !errors.Is(err, core.ErrIntegrity) {
			t.Fatalf("replay undetected (err=%v)", err)
		}
	})
}

func TestDeletionCampaign(t *testing.T) {
	forEachKind(t, func(t *testing.T, sys *core.System) {
		st, buckets := backendtest.BackendStore(t, sys)
		adversary.Deleter{}.DeleteAll(st, buckets)
		if err := backendtest.Sweep(sys, 200); !errors.Is(err, core.ErrIntegrity) {
			t.Fatalf("deletion undetected (err=%v)", err)
		}
	})
}

// TestSeedRewind reproduces §6.4 end to end: under per-bucket seeds the
// rewind leads the controller to reuse one-time pads; under the global-seed
// scheme no pad ever repeats. The target runs WITHOUT PMMAC — the §6.4
// point is exactly that this attack is not an integrity event unless the
// garbled bucket happens to hold the block of interest, so the encryption
// scheme must defend itself.
//
// The reuse is seen from both vantage points: at rest, in the memory of a
// whole PC system whose seed scheme core.Params chose, and on the wire, over
// a tree backend alone behind the decorator.
//
// The experiment is tree-backend-specific by construction: the bucket-hash
// backend refuses to build under per-bucket seeds at all (every rebuild
// rewrites whole levels, so the global scheme is the only one whose seeds
// it can keep fresh) — TestBucketHashRefusesPerBucketSeeds pins that the
// vulnerable configuration is unbuildable rather than untested.
func TestSeedRewind(t *testing.T) {
	atRest := func(enc crypt.SeedScheme) int {
		sys, err := core.Build(core.Params{
			Scheme: core.SchemePC, NBlocks: 1 << 10, DataBytes: 64,
			OnChipBudgetBytes: 256, PLBCapacityBytes: 1 << 10,
			Functional: true, EncScheme: enc, Seed: 99,
		})
		if err != nil {
			t.Fatal(err)
		}
		be := sys.Backends[0].(*backend.PathORAM)
		st, n := be.Store(), be.Geometry().Buckets()
		for a := uint64(0); a < 200; a++ {
			if _, err := sys.Frontend.Access(a, true, []byte{byte(a)}); err != nil {
				t.Fatal(err)
			}
		}
		det := &adversary.PadReuseDetector{}
		det.Scan(st, n)
		// Interleave rewinds with legitimate traffic: each access rewrites
		// a path, and rewound seeds make the per-bucket controller repeat
		// pads it already used.
		rng := rand.New(rand.NewPCG(6, 6))
		for round := 0; round < 30; round++ {
			adversary.SeedRewinder{}.RewindAll(st, n)
			det.Mark(st, n)
			for i := 0; i < 10; i++ {
				if _, err := sys.Frontend.Access(rng.Uint64()%200, false, nil); err != nil {
					t.Fatal(err)
				}
				det.Scan(st, n)
			}
		}
		return det.Reuses
	}
	onWire := func(enc crypt.SeedScheme) int {
		g, err := tree.NewGeometry(8, 4, 64)
		if err != nil {
			t.Fatal(err)
		}
		c, err := crypt.NewBucketCipher([]byte("0123456789abcdef"), enc)
		if err != nil {
			t.Fatal(err)
		}
		st := memtest.Wrap(mem.NewStore())
		be, err := backend.NewPathORAM(backend.Config{Geometry: g, Store: st, Cipher: c})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(6, 6))
		leaf := map[uint64]uint64{}
		access := func(a uint64) {
			cur, ok := leaf[a]
			if !ok {
				cur = rng.Uint64() % g.Leaves()
			}
			leaf[a] = rng.Uint64() % g.Leaves()
			if _, err := be.Access(backend.Request{Op: backend.OpWrite, Addr: a, Leaf: cur, NewLeaf: leaf[a], Data: []byte{byte(a)}}); err != nil {
				t.Fatal(err)
			}
		}
		for a := uint64(0); a < 200; a++ {
			access(a)
		}
		det := &adversary.PadReuseDetector{}
		det.Install(st)
		for round := 0; round < 30; round++ {
			adversary.SeedRewinder{}.RewindAll(st.Backend, g.Buckets())
			for i := 0; i < 10; i++ {
				access(rng.Uint64() % 200)
			}
		}
		return det.Reuses
	}
	for _, c := range []struct {
		name string
		run  func(crypt.SeedScheme) int
	}{{"at-rest", atRest}, {"on-wire", onWire}} {
		run := c.run
		t.Run(c.name, func(t *testing.T) {
			if reuses := run(crypt.SeedPerBucket); reuses == 0 {
				t.Error("per-bucket seeds: expected pad reuse under seed rewind")
			}
			if reuses := run(crypt.SeedGlobal); reuses != 0 {
				t.Errorf("global seed: %d pad reuses — must be impossible", reuses)
			}
		})
	}
}

// TestBucketHashRefusesPerBucketSeeds: the §6.4-vulnerable encryption
// scheme cannot be combined with the bucket-hash backend; the build fails
// loudly instead of shipping a rewindable configuration.
func TestBucketHashRefusesPerBucketSeeds(t *testing.T) {
	_, err := core.Build(core.Params{
		Scheme: core.SchemePC, Backend: core.BackendBucketHash,
		NBlocks: 1 << 10, DataBytes: 64,
		OnChipBudgetBytes: 256, PLBCapacityBytes: 1 << 10,
		Functional: true, EncScheme: crypt.SeedPerBucket, Seed: 99,
	})
	if err == nil {
		t.Fatal("bucket-hash backend built under per-bucket seeds")
	}
}
