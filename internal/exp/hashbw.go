package exp

import (
	"fmt"
	"math/rand/v2"

	"freecursive/internal/backend"
	"freecursive/internal/core"
	"freecursive/internal/crypt"
	"freecursive/internal/merkle"
	"freecursive/internal/tree"
)

// HashBandwidth reproduces the §6.3 headline: PMMAC only integrity-verifies
// the block of interest, while the Merkle scheme of [25] hashes every
// bucket on the path (plus sibling digests), so PMMAC cuts hash bandwidth
// by >= Z(L+1): 68x at L=16, 132x at L=32.
//
// The L=16 row is measured end-to-end: a functional Path ORAM runs random
// accesses with (a) a live Merkle tree verifying and updating every path
// and (b) a PIC frontend counting its MAC bytes. Larger L rows are computed
// with the same per-path formulas (the functional trees would not fit).
func HashBandwidth(accesses int) (*Table, error) {
	t := &Table{
		ID:    "hash-bandwidth",
		Title: "Integrity verification hash traffic: Merkle [25] vs PMMAC",
		Note: "Paper: >=68x reduction for L=16, 132x for L=32 (= Z(L+1) blocks per\n" +
			"path vs 1 block of interest). Bytes here include sibling digests.",
		Header: []string{"L", "Merkle B/access", "PMMAC B/access", "reduction", "Z(L+1)"},
	}

	// --- measured row: L=16, Z=4, 64-byte blocks -------------------------
	const lvl = 16
	const nAddr = 1 << 10 // small live set so warmup reaches steady state
	g, err := tree.NewGeometry(lvl, 4, 64)
	if err != nil {
		return nil, err
	}
	// The paper's hardware keeps no part of the tree on chip: both measured
	// systems run with the treetop cache off, so Merkle hashes whole paths.
	be, err := backend.NewPathORAM(backend.Config{Geometry: g, TreetopBytes: -1})
	if err != nil {
		return nil, err
	}
	mk := merkle.New(g)
	rng := rand.New(rand.NewPCG(3, 9))
	leafOf := make(map[uint64]uint64)

	oneAccess := func(i int) error {
		a := rng.Uint64() % nAddr
		leaf, ok := leafOf[a]
		if !ok {
			leaf = rng.Uint64() % g.Leaves()
		}
		newLeaf := rng.Uint64() % g.Leaves()
		leafOf[a] = newLeaf

		if err := mk.VerifyPath(be.Store(), leaf); err != nil {
			return fmt.Errorf("exp: merkle verify: %w", err)
		}
		if _, err := be.Access(backend.Request{
			Op: backend.OpWrite, Addr: a, Leaf: leaf, NewLeaf: newLeaf,
			Data: []byte{byte(i)},
		}); err != nil {
			return err
		}
		return mk.UpdatePath(be.Store(), leaf)
	}
	for i := 0; i < 2*nAddr; i++ { // warm: materialize blocks and buckets
		if err := oneAccess(i); err != nil {
			return nil, err
		}
	}
	mk.ResetCounters()
	for i := 0; i < accesses; i++ {
		if err := oneAccess(i); err != nil {
			return nil, err
		}
	}
	merkleBPA := float64(mk.HashedBytes()+mk.SiblingBytes()) / float64(accesses)

	// PMMAC measured: a PIC frontend over the same address set.
	sys, err := core.Build(core.Params{
		Scheme: core.SchemePIC, NBlocks: nAddr, DataBytes: 64,
		OnChipBudgetBytes: 1 << 10, Functional: true, Seed: 3,
		EncScheme: crypt.SeedGlobal, TreetopBytes: -1,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < 2*nAddr; i++ { // warm
		if _, err := sys.Frontend.Access(rng.Uint64()%nAddr, i%2 == 0, []byte{1}); err != nil {
			return nil, err
		}
	}
	snap := *sys.Counters
	for i := 0; i < accesses; i++ {
		if _, err := sys.Frontend.Access(rng.Uint64()%nAddr, i%2 == 0, []byte{1}); err != nil {
			return nil, err
		}
	}
	d := sys.Counters.Delta(snap)
	// Normalize per backend path access (the unit Merkle pays per): each
	// fetched block costs one verify and one re-seal MAC.
	pmmacBPA := float64(d.HashedBytes) / float64(d.BackendAccesses)
	t.AddRow(fmt.Sprintf("%d (measured)", lvl), f0(merkleBPA), f0(pmmacBPA),
		fmt.Sprintf("%.0fx", merkleBPA/pmmacBPA), fmt.Sprintf("%d", 4*(lvl+1)))

	// --- analytic rows ----------------------------------------------------
	for _, l := range []int{16, 24, 32} {
		gl, err := tree.NewGeometry(l, 4, 64)
		if err != nil {
			return nil, err
		}
		bucket := float64(backend.WireBucketBytes(gl))
		// Verify + update: each hashes L+1 buckets with 2 child digests and
		// an 8-byte index, and fetches one sibling digest per level.
		perPath := float64(l+1) * (bucket + 2*merkle.HashBytes + 8 + merkle.HashBytes)
		merkleB := 2 * perPath
		// PMMAC: one verify + one re-seal of the block of interest. The
		// PIC frontend averages ~H MAC pairs per *program* access because
		// of PosMap blocks, but per backend access it is exactly 2 MACs.
		pmmacB := 2 * float64(64+16)
		t.AddRow(fmt.Sprintf("%d (analytic)", l), f0(merkleB), f0(pmmacB),
			fmt.Sprintf("%.0fx", merkleB/pmmacB), fmt.Sprintf("%d", 4*(l+1)))
	}
	return t, nil
}
