package core

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"freecursive/internal/crypt"
	"freecursive/internal/stats"
)

// driveOps runs a fixed deterministic op sequence and returns the final
// counters plus a digest of all read results.
func driveOps(t *testing.T, p Params, ops int) (stats.Counters, []byte) {
	t.Helper()
	sys, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1234, 5678))
	var digest []byte
	for i := 0; i < ops; i++ {
		addr := rng.Uint64() % p.NBlocks
		if rng.IntN(2) == 0 {
			if _, err := sys.Frontend.Access(addr, true, []byte{byte(i), byte(i >> 8)}); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		} else {
			got, err := sys.Frontend.Access(addr, false, nil)
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			digest = append(digest, got[0], got[1])
		}
	}
	return *sys.Counters, digest
}

// TestFunctionalAccountingParity: for every scheme, the accounting backend
// must report byte-for-byte identical traffic AND identical read results
// as the functional backend — the property that justifies using accounting
// mode for the large-capacity figures. The figures model the paper's
// hardware, which moves whole paths: the functional side runs with the
// treetop off.
func TestFunctionalAccountingParity(t *testing.T) {
	for _, s := range allSchemes() {
		t.Run(s.String(), func(t *testing.T) {
			base := Params{
				Scheme: s, NBlocks: 1 << 10, DataBytes: 64,
				OnChipBudgetBytes: 256, PLBCapacityBytes: 1 << 10,
				EncScheme: crypt.SeedGlobal, Seed: 55,
			}
			fp := base
			fp.Functional = true
			fp.TreetopBytes = -1
			ap := base
			ap.Functional = false

			cf, df := driveOps(t, fp, 1500)
			ca, da := driveOps(t, ap, 1500)

			if !bytes.Equal(df, da) {
				t.Fatal("read results diverge between functional and accounting modes")
			}
			if cf.DataBytes != ca.DataBytes || cf.PosMapBytes != ca.PosMapBytes {
				t.Fatalf("traffic diverges: functional %d/%d accounting %d/%d",
					cf.DataBytes, cf.PosMapBytes, ca.DataBytes, ca.PosMapBytes)
			}
			if cf.BackendAccesses != ca.BackendAccesses || cf.Appends != ca.Appends {
				t.Fatalf("access counts diverge: %d/%d vs %d/%d",
					cf.BackendAccesses, cf.Appends, ca.BackendAccesses, ca.Appends)
			}
			if cf.PLBHits != ca.PLBHits || cf.GroupRemap != ca.GroupRemap {
				t.Fatalf("frontend events diverge: hits %d vs %d, remaps %d vs %d",
					cf.PLBHits, ca.PLBHits, cf.GroupRemap, ca.GroupRemap)
			}
		})
	}
}

// TestSchemesAgreeOnContents: all five schemes implement the same memory —
// identical op sequences must return identical data, whatever the internal
// organization.
func TestSchemesAgreeOnContents(t *testing.T) {
	var ref []byte
	for i, s := range allSchemes() {
		p := Params{
			Scheme: s, NBlocks: 1 << 10, DataBytes: 64,
			OnChipBudgetBytes: 256, PLBCapacityBytes: 1 << 10,
			Functional: true, EncScheme: crypt.SeedGlobal, Seed: 55,
		}
		_, digest := driveOps(t, p, 1200)
		if i == 0 {
			ref = digest
			continue
		}
		if !bytes.Equal(ref, digest) {
			t.Fatalf("scheme %v returns different contents than %v", s, allSchemes()[0])
		}
	}
}

// TestSameSeedSameTrace: builds with identical seeds are bit-identical
// (reproducibility of every figure); different seeds diverge.
func TestSameSeedSameTrace(t *testing.T) {
	p := Params{
		Scheme: SchemePIC, NBlocks: 1 << 10, DataBytes: 64,
		OnChipBudgetBytes: 256, PLBCapacityBytes: 1 << 10,
		Functional: true, EncScheme: crypt.SeedGlobal, Seed: 9,
	}
	c1, d1 := driveOps(t, p, 800)
	c2, d2 := driveOps(t, p, 800)
	if c1 != c2 || !bytes.Equal(d1, d2) {
		t.Fatal("same seed produced different runs")
	}
	p2 := p
	p2.Seed = 10
	c3, _ := driveOps(t, p2, 800)
	if c1.DataBytes == c3.DataBytes && c1.PLBHits == c3.PLBHits && c1.Appends == c3.Appends {
		t.Log("note: different seeds produced identical counters (possible but unlikely)")
	}
}

// TestRecursionDepthFollowsBudget: shrinking the on-chip budget deepens the
// recursion, and the resulting on-chip PosMap honors the budget.
func TestRecursionDepthFollowsBudget(t *testing.T) {
	prevH := 0
	for _, budget := range []int{1 << 20, 16 << 10, 1 << 10, 64} {
		sys, err := Build(Params{
			Scheme: SchemePC, NBlocks: 1 << 20, DataBytes: 64,
			OnChipBudgetBytes: budget, PLBCapacityBytes: 1 << 10,
			Functional: false, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if prevH != 0 && sys.H < prevH {
			t.Fatalf("smaller budget %d gave shallower recursion H=%d", budget, sys.H)
		}
		prevH = sys.H
		if sys.OnChipBits > uint64(budget)*8 {
			t.Fatalf("budget %dB violated: on-chip %d bits", budget, sys.OnChipBits)
		}
	}
	if prevH < 3 {
		t.Fatalf("tightest budget only reached H=%d", prevH)
	}
}

// TestRecursiveOnChipMatchesPaper: the R_X8 flagship (4 GB, H=4) yields the
// ~272 KB on-chip PosMap the paper quotes (§7.1.4).
func TestRecursiveOnChipMatchesPaper(t *testing.T) {
	sys, err := Build(Params{
		Scheme: SchemeRecursive, NBlocks: 1 << 26, DataBytes: 64,
		HOverride: 4, Functional: false, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	kb := float64(sys.OnChipBits) / 8 / 1024
	if kb < 230 || kb > 310 {
		t.Fatalf("R_X8 on-chip PosMap %.0f KB, paper says 272 KB", kb)
	}
	// And the PC_X32 counterpart: recursion to <=128 KB yields a few-KB map.
	sys2, err := Build(Params{
		Scheme: SchemePC, NBlocks: 1 << 26, DataBytes: 64,
		OnChipBudgetBytes: 128 << 10, PLBCapacityBytes: 64 << 10,
		Functional: false, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if kb2 := float64(sys2.OnChipBits) / 8 / 1024; kb2 > 16 {
		t.Fatalf("PC_X32 on-chip PosMap %.1f KB, paper says ~4 KB", kb2)
	}
}
