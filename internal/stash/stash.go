// Package stash implements the Path ORAM stash: a small trusted memory that
// temporarily holds data blocks between a path read and the eviction that
// writes them back (§3.1). Capacity follows [26]: 200 blocks by default.
//
// Every address-dependent lookup here happens in the controller's on-chip
// trusted memory (§2). The adversary sees only the path I/O around it, and
// the leaf fixes that before the stash is consulted.
//
// The stash sits on the per-access hot path, so it is built to run
// allocation-free in steady state and without a hash map: residents live in
// two parallel slices sorted by address, a lookup is a binary search over at
// most a capacity's worth of keys, eviction walks the blocks in place,
// removed Block structs are recycled through a free list, and EvictForPath
// reuses its per-level result slices across calls.
package stash

import (
	"fmt"
	"slices"

	"freecursive/internal/tree"
)

// Block is a stash-resident ORAM block: its logical address, the leaf it is
// currently mapped to, and its payload.
type Block struct {
	Addr uint64
	Leaf uint64
	Data []byte
}

// Stash holds blocks keyed by address: sorted[i] is the address of the
// resident blocks[i], ascending. The zero value is an empty, unbounded
// stash. Eviction scans all occupants, which is faithful to hardware (the
// real stash is a small scanned memory).
type Stash struct {
	capacity  int
	sorted    []uint64 // resident addresses, ascending
	blocks    []*Block // the residents, parallel to sorted
	free      []*Block // recycled Block structs, so Put rarely allocates
	evictOut  [][]Block
	maxSeen   int
	overflows int
}

// DefaultCapacity is the stash size used in the paper's evaluation.
const DefaultCapacity = 200

// New creates a stash with the given capacity. capacity <= 0 means
// unbounded (occupancy is still tracked).
func New(capacity int) *Stash {
	return &Stash{capacity: capacity}
}

// Len returns the current occupancy.
func (s *Stash) Len() int { return len(s.blocks) }

// Capacity returns the configured capacity (0 = unbounded).
func (s *Stash) Capacity() int { return s.capacity }

// MaxSeen returns the highest occupancy recorded by Note().
func (s *Stash) MaxSeen() int { return s.maxSeen }

// Overflows returns how many times Note() observed occupancy > capacity.
func (s *Stash) Overflows() int { return s.overflows }

// recycle returns a removed Block struct to the free list.
//
//oram:hotpath
func (s *Stash) recycle(b *Block) {
	b.Data = nil // drop the payload reference; the caller owns it now
	s.free = append(s.free, b)
}

// Put inserts or replaces a block. The stash takes ownership of b.Data.
//
//oram:hotpath
func (s *Stash) Put(b Block) {
	i, found := slices.BinarySearch(s.sorted, b.Addr)
	if found {
		*s.blocks[i] = b
		return
	}
	var nb *Block
	if n := len(s.free); n > 0 {
		nb = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		//oramlint:allow hotpathalloc free-list miss; recycled blocks cover the steady state, pinned by the AllocsPerRun gates
		nb = new(Block)
	}
	*nb = b
	s.sorted = slices.Insert(s.sorted, i, b.Addr)
	s.blocks = slices.Insert(s.blocks, i, nb)
}

// Get returns the live block with the given address, or nil. Mutating the
// returned block's fields updates the stash in place (Addr must not be
// changed); the pointer is only valid until the block is removed or evicted.
//
//oram:hotpath
func (s *Stash) Get(addr uint64) *Block {
	if i, found := slices.BinarySearch(s.sorted, addr); found {
		return s.blocks[i]
	}
	return nil
}

// Remove deletes the block with the given address and returns its recycled
// storage, or nil. The returned Block is only valid until the next Put on
// this stash, and its Data field is cleared — the payload buffer's ownership
// transfers to whoever holds it, so callers that need the payload must Get
// the block and capture Data before removing.
//
//oram:hotpath
func (s *Stash) Remove(addr uint64) *Block {
	i, found := slices.BinarySearch(s.sorted, addr)
	if !found {
		return nil
	}
	b := s.blocks[i]
	s.sorted = slices.Delete(s.sorted, i, i+1)
	s.blocks = slices.Delete(s.blocks, i, i+1)
	s.recycle(b)
	return b
}

// Note records the post-operation occupancy for the high-water mark and the
// overflow counter. Call it after each complete ORAM access, i.e. after
// eviction, matching how stash occupancy is defined in [34].
func (s *Stash) Note() {
	if n := len(s.blocks); n > s.maxSeen {
		s.maxSeen = n
	}
	if s.capacity > 0 && len(s.blocks) > s.capacity {
		s.overflows++
	}
}

// EvictForPath selects up to g.Z blocks per level that may legally reside on
// the path to pathLeaf in the tree g, removes them from the stash, and
// returns them grouped by level (index 0 = root). The levels in
// [holdLo, holdHi) are off limits — the caller's in-flight window has
// promised those buckets to a later access — so they come back empty and a
// block that is legal only there stays in the stash; holdLo >= holdHi holds
// nothing back. Every resident block's Leaf must be a valid label of g.
//
// Selection is the standard greedy Path ORAM eviction, deepest level first
// and candidates in ascending address order, which maximizes how far blocks
// sink and keeps stash occupancy low. It is done in one pass over the
// residents: a block's deepest legal level is where its path leaves
// pathLeaf's, and the block goes to the deepest open level at or above it
// that still has a free slot. That is the same assignment as filling level
// L, then L-1, ... each open one with its first Z candidates by address: a
// block reaches a level only if every deeper open legal level was filled by
// lower addresses, which is exactly when the level-by-level scan would still
// find it unplaced there.
//
// The returned slices (and the Blocks in them) are reusable scratch, valid
// only until the next EvictForPath call; the Data slices are the payload
// buffers the stash owned, now owned by the caller.
//
//oram:hotpath
func (s *Stash) EvictForPath(g tree.Geometry, pathLeaf uint64, holdLo, holdHi int) [][]Block {
	for len(s.evictOut) < g.L+1 {
		s.evictOut = append(s.evictOut, nil)
	}
	out := s.evictOut[:g.L+1]
	for lev := range out {
		out[lev] = out[lev][:0]
	}

	// Survivors are compacted to the front of both slices as the scan passes
	// them, so evicting costs no per-block removal.
	n := 0
	for i, b := range s.blocks {
		lev := g.DeepestLegalLevel(b.Leaf, pathLeaf)
		for lev >= 0 && (len(out[lev]) == g.Z || lev >= holdLo && lev < holdHi) {
			lev--
		}
		if lev < 0 {
			s.sorted[n], s.blocks[n] = s.sorted[i], b
			n++
			continue
		}
		out[lev] = append(out[lev], *b)
		s.recycle(b)
	}
	clear(s.blocks[n:])
	s.sorted, s.blocks = s.sorted[:n], s.blocks[:n]
	return out
}

// Blocks returns a deep copy of every resident block, sorted by address —
// the snapshot a durable controller persists. The Data payloads are copied:
// the stash mutates blocks in place as accesses continue, so a snapshot that
// aliased live stash memory would serialize whatever the controller did
// AFTER the copy, corrupting the restored state.
func (s *Stash) Blocks() []Block {
	out := make([]Block, 0, len(s.blocks))
	for _, p := range s.blocks {
		b := *p
		data := make([]byte, len(b.Data))
		copy(data, b.Data)
		b.Data = data
		out = append(out, b)
	}
	return out
}

// Addresses returns the sorted addresses currently in the stash (testing
// and debugging aid).
func (s *Stash) Addresses() []uint64 {
	return slices.Clone(s.sorted)
}

// String summarizes occupancy.
func (s *Stash) String() string {
	return fmt.Sprintf("stash{%d/%d max=%d}", len(s.blocks), s.capacity, s.maxSeen)
}
