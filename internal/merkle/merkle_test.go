package merkle

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"freecursive/internal/mem"
	"freecursive/internal/tree"
)

func setup(t *testing.T, levels int) (*Tree, *mem.Store, tree.Geometry) {
	t.Helper()
	g, err := tree.NewGeometry(levels, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	return New(g), mem.NewStore(), g
}

func TestEmptyTreeVerifies(t *testing.T) {
	mk, st, g := setup(t, 6)
	for leaf := uint64(0); leaf < g.Leaves(); leaf += 7 {
		if err := mk.VerifyPath(st, leaf); err != nil {
			t.Fatalf("fresh tree fails verification: %v", err)
		}
	}
}

func TestWriteVerifyRoundTrip(t *testing.T) {
	mk, st, g := setup(t, 6)
	rng := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 200; i++ {
		leaf := rng.Uint64() % g.Leaves()
		if err := mk.VerifyPath(st, leaf); err != nil {
			t.Fatalf("op %d verify: %v", i, err)
		}
		// Rewrite the path's buckets, as the ORAM baclend would.
		for lev := 0; lev <= g.L; lev++ {
			idx := g.NodeIndex(leaf, lev)
			buf := make([]byte, 64)
			buf[0] = byte(i)
			buf[1] = byte(idx)
			st.Write(idx, buf)
		}
		mk.UpdatePath(st, leaf)
	}
}

func TestDetectsBucketTamper(t *testing.T) {
	mk, st, g := setup(t, 6)
	leaf := uint64(13)
	for lev := 0; lev <= g.L; lev++ {
		st.Write(g.NodeIndex(leaf, lev), []byte{1, 2, 3})
	}
	mk.UpdatePath(st, leaf)
	if err := mk.VerifyPath(st, leaf); err != nil {
		t.Fatalf("clean path rejected: %v", err)
	}
	// Tamper one mid-path bucket.
	idx := g.NodeIndex(leaf, 3)
	st.Write(idx, []byte{9, 9, 9})
	if err := mk.VerifyPath(st, leaf); err == nil {
		t.Fatal("bucket tamper undetected")
	}
}

func TestDetectsCrossPathTamper(t *testing.T) {
	mk, st, g := setup(t, 5)
	// Write two disjoint-ish paths.
	for _, leaf := range []uint64{0, 31} {
		for lev := 0; lev <= g.L; lev++ {
			st.Write(g.NodeIndex(leaf, lev), []byte{byte(leaf), byte(lev)})
		}
		mk.UpdatePath(st, leaf)
	}
	// Tamper a leaf-level bucket of path 31; path 0 shares only the root, so
	// path 0 still verifies but path 31 must fail.
	st.Write(g.NodeIndex(31, g.L), []byte{0xbd})
	if err := mk.VerifyPath(st, 0); err != nil {
		t.Fatalf("untouched path rejected: %v", err)
	}
	if err := mk.VerifyPath(st, 31); err == nil {
		t.Fatal("tampered path accepted")
	}
}

func TestDetectsBucketSwap(t *testing.T) {
	mk, st, g := setup(t, 5)
	leaf := uint64(9)
	for lev := 0; lev <= g.L; lev++ {
		st.Write(g.NodeIndex(leaf, lev), []byte{byte(lev), 0xaa})
	}
	mk.UpdatePath(st, leaf)
	// Swap two buckets on the same path: contents valid individually, but
	// positions are bound by the tree structure.
	a, b := g.NodeIndex(leaf, 2), g.NodeIndex(leaf, 3)
	ba, _ := st.Read(a)
	ba = bytes.Clone(ba)
	bb, _ := st.Read(b)
	st.Write(a, bb)
	st.Write(b, ba)
	if err := mk.VerifyPath(st, leaf); err == nil {
		t.Fatal("bucket swap undetected")
	}
}

func TestRootChangesOnUpdate(t *testing.T) {
	mk, st, g := setup(t, 4)
	r0 := mk.Root()
	st.Write(g.NodeIndex(3, g.L), []byte{1})
	mk.UpdatePath(st, 3)
	if mk.Root() == r0 {
		t.Fatal("root unchanged after update")
	}
}

func TestBandwidthAccounting(t *testing.T) {
	mk, st, g := setup(t, 6)
	mk.ResetCounters()
	if err := mk.VerifyPath(st, 0); err != nil {
		t.Fatal(err)
	}
	// One verification hashes L+1 nodes and fetches L sibling digests.
	if mk.HashOps() != uint64(g.L+1) {
		t.Fatalf("hash ops %d want %d", mk.HashOps(), g.L+1)
	}
	if mk.SiblingBytes() != uint64(g.L)*HashBytes {
		t.Fatalf("sibling bytes %d", mk.SiblingBytes())
	}
	if mk.HashedBytes() == 0 {
		t.Fatal("no hashed bytes counted")
	}
}

func TestVerifyRejectsBadLeaf(t *testing.T) {
	mk, st, g := setup(t, 4)
	if err := mk.VerifyPath(st, g.Leaves()); err == nil {
		t.Fatal("out-of-range leaf accepted")
	}
}
