// Package merkle implements the Merkle-tree integrity baseline of [25]
// (Ren et al., HPCA'13): a hash tree layered over the ORAM tree, one hash
// per bucket, where each node's hash covers the bucket's sealed contents
// and its children's hashes. Verifying or updating a path therefore hashes
// every bucket on it — the serialization and bandwidth bottleneck that
// PMMAC's verify-one-block design eliminates (§6.3).
package merkle

import (
	"crypto/sha3"
	"encoding/binary"
	"fmt"

	"freecursive/internal/mem"
	"freecursive/internal/tree"
)

// HashBytes is the SHA3-224 digest size used for tree nodes.
const HashBytes = 28

type digest = [HashBytes]byte

// Tree is the authentication tree. The root digest lives on-chip (trusted);
// interior digests live with the adversary conceptually, but since any
// inconsistency is caught against the root we keep them in trusted Go
// memory for the simulation and count bandwidth as if they were fetched.
type Tree struct {
	geom tree.Geometry
	// nodes holds non-default digests by heap index.
	nodes map[uint64]digest
	// defaults[l] is the digest of a never-written subtree rooted at level l.
	defaults []digest
	root     digest

	idxs []uint64 // the path being hashed, root first
	path [][]byte // its sealed buckets, as one ReadPath returned them

	hashedBytes uint64 // bytes run through the hash unit
	hashOps     uint64 // digest computations
	siblingB    uint64 // sibling-digest bytes fetched from memory
}

// New builds the tree for the given geometry, computing the default
// digests of never-written buckets bottom-up.
func New(g tree.Geometry) *Tree {
	t := &Tree{
		geom:     g,
		nodes:    make(map[uint64]digest),
		defaults: make([]digest, g.L+1),
		idxs:     make([]uint64, g.L+1),
		path:     make([][]byte, g.L+1),
	}
	for l := g.L; l >= 0; l-- {
		if l == g.L {
			t.defaults[l] = t.hashNode(nil, nil, nil)
		} else {
			d := t.defaults[l+1]
			t.defaults[l] = t.hashNode(nil, d[:], d[:])
		}
	}
	t.root = t.defaults[0]
	return t
}

// hashNode computes H(len(bucket) || sealed bucket || left || right). The
// bucket's position is bound by the tree structure itself (each digest sits
// at a fixed place in its parent's preimage), so the node index need not be
// hashed — which also lets all never-written buckets share one default
// digest per level.
func (t *Tree) hashNode(bucket, left, right []byte) digest {
	h := sha3.New224()
	var lb [8]byte
	binary.BigEndian.PutUint64(lb[:], uint64(len(bucket)))
	h.Write(lb[:])
	h.Write(bucket)
	h.Write(left)
	h.Write(right)
	t.hashOps++
	t.hashedBytes += uint64(8 + len(bucket) + len(left) + len(right))
	var d digest
	copy(d[:], h.Sum(nil))
	return d
}

func (t *Tree) node(idx uint64, level int) digest {
	if d, ok := t.nodes[idx]; ok {
		return d
	}
	return t.defaults[level]
}

// readPath fetches the sealed buckets of the path to leaf in one ReadPath.
func (t *Tree) readPath(st mem.Backend, leaf uint64) error {
	if !t.geom.ValidLeaf(leaf) {
		return fmt.Errorf("merkle: leaf %d out of range", leaf)
	}
	for level := range t.idxs {
		t.idxs[level] = t.geom.NodeIndex(leaf, level)
	}
	if err := st.ReadPath(t.idxs, t.path); err != nil {
		return fmt.Errorf("merkle: reading path %d: %w", leaf, err)
	}
	return nil
}

// VerifyPath authenticates the path to leaf against the on-chip root: it
// recomputes every bucket digest bottom-up, fetching the off-path sibling
// digests, exactly as [25] must on every ORAM access.
func (t *Tree) VerifyPath(st mem.Backend, leaf uint64) error {
	if err := t.readPath(st, leaf); err != nil {
		return err
	}
	// Recompute from the leaf up; at each level the on-path child digest is
	// the recomputed one and the sibling comes from (untrusted) storage.
	var below digest
	for level := t.geom.L; level >= 0; level-- {
		idx, bucket := t.idxs[level], t.path[level]
		var left, right []byte
		if level < t.geom.L {
			childIdx := t.geom.NodeIndex(leaf, level+1)
			sib := siblingIndex(childIdx)
			sibD := t.node(sib, level+1)
			t.siblingB += HashBytes
			if childIdx&1 == 1 { // on-path child is the left child
				left, right = below[:], sibD[:]
			} else {
				left, right = sibD[:], below[:]
			}
		}
		d := t.hashNode(bucket, left, right)
		if level == 0 {
			if d != t.root {
				return fmt.Errorf("merkle: root mismatch: path %d tampered", leaf)
			}
			return nil
		}
		// Check against the stored digest too: catching mismatches early
		// models the pipelined checker; the root comparison is what provides
		// security.
		if stored := t.node(idx, level); d != stored {
			return fmt.Errorf("merkle: node %d (level %d) mismatch on path %d", idx, level, leaf)
		}
		below = d
	}
	return nil
}

// UpdatePath recomputes the digests of the path to leaf after the ORAM
// rewrote its buckets, updating the on-chip root. This is the inherently
// sequential chain of §6.3: each level's digest depends on the level below.
func (t *Tree) UpdatePath(st mem.Backend, leaf uint64) error {
	if err := t.readPath(st, leaf); err != nil {
		return err
	}
	var below digest
	for level := t.geom.L; level >= 0; level-- {
		idx, bucket := t.idxs[level], t.path[level]
		var left, right []byte
		if level < t.geom.L {
			childIdx := t.geom.NodeIndex(leaf, level+1)
			sib := siblingIndex(childIdx)
			sibD := t.node(sib, level+1)
			t.siblingB += HashBytes
			if childIdx&1 == 1 {
				left, right = below[:], sibD[:]
			} else {
				left, right = sibD[:], below[:]
			}
		}
		d := t.hashNode(bucket, left, right)
		t.nodes[idx] = d
		below = d
		if level == 0 {
			t.root = d
		}
	}
	return nil
}

// siblingIndex returns the heap index of a node's sibling.
func siblingIndex(idx uint64) uint64 {
	if idx&1 == 1 {
		return idx + 1
	}
	return idx - 1
}

// HashedBytes returns total bytes hashed (the §6.3 comparison metric).
func (t *Tree) HashedBytes() uint64 { return t.hashedBytes }

// HashOps returns the number of digest computations.
func (t *Tree) HashOps() uint64 { return t.hashOps }

// SiblingBytes returns bytes of sibling digests fetched.
func (t *Tree) SiblingBytes() uint64 { return t.siblingB }

// ResetCounters zeroes the bandwidth counters (e.g. after initialization).
func (t *Tree) ResetCounters() {
	t.hashedBytes, t.hashOps, t.siblingB = 0, 0, 0
}

// Root returns the current on-chip root digest.
func (t *Tree) Root() [HashBytes]byte { return t.root }
