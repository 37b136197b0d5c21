// Package tree defines the geometry of a Path ORAM tree: levels, buckets,
// path indexing, and the physical "subtree layout" address mapping of [26]
// that the DRAM model uses to achieve near-peak bandwidth.
//
// Geometry math runs on leaf labels the adversary is allowed to see (Path
// ORAM reveals the leaf of every access by design), but it must not branch
// on anything more: the secretflow analyzer holds the package to
// secret-independent control flow, and the one deliberate exception carries
// a reasoned allow.

//oram:oblivious
package tree

import (
	"fmt"
	"math/bits"
)

// Geometry describes a complete binary ORAM tree with levels 0 (root)
// through L (leaves), Z block slots per bucket, and a fixed block payload.
type Geometry struct {
	L          int // leaf level; the tree has L+1 levels and 2^L leaves
	Z          int // block slots per bucket
	BlockBytes int // payload bytes per block (incl. any MAC the frontend packs)
}

// NewGeometry validates and returns a Geometry.
func NewGeometry(levels, z, blockBytes int) (Geometry, error) {
	g := Geometry{L: levels, Z: z, BlockBytes: blockBytes}
	switch {
	case levels < 0 || levels > 62:
		return g, fmt.Errorf("tree: L=%d outside [0,62]", levels)
	case z < 1:
		return g, fmt.Errorf("tree: Z=%d must be >= 1", z)
	case blockBytes < 1:
		return g, fmt.Errorf("tree: block size %d must be >= 1", blockBytes)
	}
	return g, nil
}

// LevelsForCapacity returns the leaf level L = ceil(log2(n/z)) used by the
// paper's flagship configuration: with 2^L = N/Z leaves the tree provides
// about 2N slots, i.e. 50% utilization.
func LevelsForCapacity(n uint64, z int) int {
	if n == 0 {
		return 0
	}
	leaves := n / uint64(z)
	if leaves < 1 {
		leaves = 1
	}
	l := bits.Len64(leaves - 1) // ceil(log2(leaves))
	if leaves == 1 {
		l = 0
	}
	return l
}

// Leaves returns the number of leaves, 2^L.
func (g Geometry) Leaves() uint64 { return 1 << uint(g.L) }

// Buckets returns the total bucket count, 2^(L+1) - 1.
func (g Geometry) Buckets() uint64 { return (1 << uint(g.L+1)) - 1 }

// Slots returns the total block slots in the tree.
func (g Geometry) Slots() uint64 { return g.Buckets() * uint64(g.Z) }

// NodeIndex returns the heap index of the bucket at the given level on the
// path to leaf. Level 0 is the root (index 0); the children of node i are
// 2i+1 and 2i+2.
func (g Geometry) NodeIndex(leaf uint64, level int) uint64 {
	// The node at `level` on the path to `leaf` is identified by the high
	// `level` bits of the leaf label.
	prefix := leaf >> uint(g.L-level)
	return (1 << uint(level)) - 1 + prefix
}

// PathIndices fills dst with the heap indices of the L+1 buckets on the path
// from the root to leaf and returns it. If dst is too small a new slice is
// allocated.
func (g Geometry) PathIndices(leaf uint64, dst []uint64) []uint64 {
	if cap(dst) < g.L+1 {
		//oramlint:allow hotpathalloc growth path only; steady-state callers pass a full-size reuse buffer, pinned by the AllocsPerRun gates
		dst = make([]uint64, g.L+1)
	}
	dst = dst[:g.L+1]
	for lev := 0; lev <= g.L; lev++ {
		dst[lev] = g.NodeIndex(leaf, lev)
	}
	return dst
}

// CanReside reports whether a block mapped to blockLeaf may be stored in the
// bucket at the given level on the path to pathLeaf — i.e. whether the two
// paths intersect at that level. This is the Path ORAM eviction legality
// test.
func (g Geometry) CanReside(blockLeaf, pathLeaf uint64, level int) bool {
	shift := uint(g.L - level)
	return blockLeaf>>shift == pathLeaf>>shift
}

// ValidLeaf reports whether leaf is within [0, 2^L).
func (g Geometry) ValidLeaf(leaf uint64) bool { return leaf < g.Leaves() }

// DeepestLegalLevel returns the deepest level on the path to pathLeaf where
// a block mapped to blockLeaf may reside (0 if only the root is legal): the
// number of leading bits the two L-bit labels have in common. It is also one
// less than the number of buckets the two paths share.
func (g Geometry) DeepestLegalLevel(blockLeaf, pathLeaf uint64) int {
	// The labels' difference goes to the top L bits; the bit set right
	// below them ends the count at L when the labels are equal, and at 0
	// when L is 0. No branch, so no label ever decides control flow here.
	x := (blockLeaf^pathLeaf)<<uint(64-g.L) | 1<<uint(63-g.L)
	return bits.LeadingZeros64(x)
}

// SubtreeLayout maps heap bucket indices to physical DRAM coordinates using
// the packed-subtree scheme of [26]: the tree is partitioned into subtrees
// of `SubLevels` levels; each subtree occupies one contiguous DRAM row so a
// path access touches ~ (L+1)/SubLevels rows, most reads within a row being
// row-buffer hits.
type SubtreeLayout struct {
	Geom        Geometry
	SubLevels   int    // levels per packed subtree (k)
	BucketBytes uint64 // padded on-DRAM bucket size
}

// NewSubtreeLayout chooses k so a subtree of 2^k - 1 buckets fits in rowBytes.
func NewSubtreeLayout(g Geometry, bucketBytes, rowBytes uint64) SubtreeLayout {
	k := 1
	for (uint64(1)<<uint(k+1)-1)*bucketBytes <= rowBytes && k < g.L+1 {
		k++
	}
	return SubtreeLayout{Geom: g, SubLevels: k, BucketBytes: bucketBytes}
}

// SubtreeCoord identifies a packed subtree and a bucket's offset inside it.
type SubtreeCoord struct {
	SubtreeID uint64 // dense index of the subtree, root subtree = 0
	Offset    uint64 // bucket index within the subtree [0, 2^k-1)
}

// Coord maps a (leaf, level) bucket to its subtree coordinate.
//
// Subtrees are organized in "super-levels" of k tree levels each. Within
// super-level s (covering tree levels [s*k, (s+1)*k)), there are 2^(s*k)
// subtrees, identified by the leading s*k bits of the leaf label. Subtree
// IDs are assigned densely: all subtrees of super-level 0 first, then
// super-level 1, and so on.
func (sl SubtreeLayout) Coord(leaf uint64, level int) SubtreeCoord {
	k := sl.SubLevels
	s := level / k // super-level
	base := uint64(0)
	for i := 0; i < s; i++ {
		base += 1 << uint(i*k)
	}
	prefixBits := uint(s * k)
	var prefix uint64
	if prefixBits > 0 {
		prefix = leaf >> uint(sl.Geom.L-int(prefixBits))
	}
	// Offset within the subtree: the bucket is at local level level-s*k on
	// the path determined by the next k bits of the leaf label.
	localLevel := level - s*k
	localBits := sl.Geom.L - int(prefixBits) // bits remaining below this subtree's root
	var localPath uint64
	if localLevel > 0 {
		localPath = (leaf >> uint(localBits-localLevel)) & ((1 << uint(localLevel)) - 1)
	}
	offset := (uint64(1) << uint(localLevel)) - 1 + localPath
	return SubtreeCoord{SubtreeID: base + prefix, Offset: offset}
}

// PhysAddr returns the flat physical byte address of the bucket at
// (leaf, level): subtrees are laid out contiguously in subtree-ID order,
// each occupying 2^k - 1 bucket slots.
func (sl SubtreeLayout) PhysAddr(leaf uint64, level int) uint64 {
	c := sl.Coord(leaf, level)
	subSize := (uint64(1)<<uint(sl.SubLevels) - 1) * sl.BucketBytes
	return c.SubtreeID*subSize + c.Offset*sl.BucketBytes
}
