package stash

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"freecursive/internal/tree"
)

func TestPutGetRemove(t *testing.T) {
	s := New(10)
	s.Put(Block{Addr: 1, Leaf: 5, Data: []byte{0xaa}})
	if b := s.Get(1); b == nil || b.Leaf != 5 || b.Data[0] != 0xaa {
		t.Fatal("Get after Put failed")
	}
	if s.Get(2) != nil {
		t.Fatal("phantom block")
	}
	s.Put(Block{Addr: 1, Leaf: 6}) // replace
	if s.Get(1).Leaf != 6 || s.Len() != 1 {
		t.Fatal("replace failed")
	}
	if b := s.Remove(1); b == nil || b.Leaf != 6 {
		t.Fatal("Remove returned wrong block")
	}
	if s.Len() != 0 || s.Remove(1) != nil {
		t.Fatal("Remove not idempotent")
	}
}

func TestNoteTracksHighWaterAndOverflow(t *testing.T) {
	s := New(2)
	s.Put(Block{Addr: 1})
	s.Put(Block{Addr: 2})
	s.Note()
	if s.MaxSeen() != 2 || s.Overflows() != 0 {
		t.Fatalf("max=%d overflows=%d", s.MaxSeen(), s.Overflows())
	}
	s.Put(Block{Addr: 3})
	s.Note()
	if s.MaxSeen() != 3 || s.Overflows() != 1 {
		t.Fatalf("max=%d overflows=%d", s.MaxSeen(), s.Overflows())
	}
}

func TestAddressesSorted(t *testing.T) {
	s := New(0)
	for _, a := range []uint64{9, 3, 7, 1} {
		s.Put(Block{Addr: a})
	}
	got := s.Addresses()
	want := []uint64{1, 3, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("addresses %v", got)
		}
	}
}

// TestEvictLegality (property): every evicted block lands in a bucket its
// leaf path passes through; no bucket exceeds Z; every block left in the
// stash genuinely had no remaining slot.
func TestEvictLegality(t *testing.T) {
	g, _ := tree.NewGeometry(6, 4, 64)
	f := func(seed uint64, nRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		n := int(nRaw%64) + 1
		s := New(0)
		for i := 0; i < n; i++ {
			s.Put(Block{Addr: uint64(i), Leaf: rng.Uint64() % g.Leaves()})
		}
		pathLeaf := rng.Uint64() % g.Leaves()
		placed := s.EvictForPath(g, pathLeaf, 0, 0)

		total := 0
		for lev, bucket := range placed {
			if len(bucket) > g.Z {
				return false
			}
			total += len(bucket)
			for _, b := range bucket {
				if !g.CanReside(b.Leaf, pathLeaf, lev) {
					return false
				}
			}
		}
		if total+s.Len() != n {
			return false // blocks lost or duplicated
		}
		// Completeness: a leftover block fits nowhere — every legal level
		// for it must be full.
		for _, a := range s.Addresses() {
			b := s.Get(a)
			for lev := 0; lev <= g.L; lev++ {
				if g.CanReside(b.Leaf, pathLeaf, lev) && len(placed[lev]) < g.Z {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestEvictGreedyDepth: blocks go as deep as legally possible — with a
// single block, it must land at its deepest legal level.
func TestEvictGreedyDepth(t *testing.T) {
	g, _ := tree.NewGeometry(6, 4, 64)
	for _, blockLeaf := range []uint64{0, 5, 31, 63} {
		for _, pathLeaf := range []uint64{0, 32, 63} {
			s := New(0)
			s.Put(Block{Addr: 1, Leaf: blockLeaf})
			placed := s.EvictForPath(g, pathLeaf, 0, 0)
			want := g.DeepestLegalLevel(blockLeaf, pathLeaf)
			if len(placed[want]) != 1 {
				t.Fatalf("block leaf=%d path=%d not at deepest level %d", blockLeaf, pathLeaf, want)
			}
		}
	}
}

// TestEvictDeterministic: same contents, same eviction (the simulator must
// be reproducible).
func TestEvictDeterministic(t *testing.T) {
	g, _ := tree.NewGeometry(5, 2, 64)
	build := func() *Stash {
		s := New(0)
		rng := rand.New(rand.NewPCG(7, 7))
		for i := 0; i < 40; i++ {
			s.Put(Block{Addr: uint64(i), Leaf: rng.Uint64() % g.Leaves()})
		}
		return s
	}
	a := build().EvictForPath(g, 9, 0, 0)
	b := build().EvictForPath(g, 9, 0, 0)
	for lev := range a {
		if len(a[lev]) != len(b[lev]) {
			t.Fatalf("level %d differs", lev)
		}
		for i := range a[lev] {
			if a[lev][i].Addr != b[lev][i].Addr {
				t.Fatalf("level %d slot %d differs", lev, i)
			}
		}
	}
}

// evictByLevel is the reference eviction EvictForPath must reproduce: the
// textbook loop that fills level L, then L-1, ... down to the root, each
// with the first Z still-resident blocks, in ascending address order, whose
// path shares that bucket, skipping the held-back levels [holdLo, holdHi).
// O(levels × occupants) lookups — which is why the stash does not run it —
// but obviously the Path ORAM greedy order.
func evictByLevel(s *Stash, g tree.Geometry, pathLeaf uint64, holdLo, holdHi int) [][]Block {
	out := make([][]Block, g.L+1)
	for lev := g.L; lev >= 0; lev-- {
		if lev >= holdLo && lev < holdHi {
			continue
		}
		for _, a := range s.Addresses() {
			if len(out[lev]) == g.Z {
				break
			}
			if b := s.Get(a); g.CanReside(b.Leaf, pathLeaf, lev) {
				out[lev] = append(out[lev], *b)
				s.Remove(a)
			}
		}
	}
	return out
}

// TestEvictMatchesLevelByLevel (search): over randomized stashes — shallow
// to deep trees, Z of 1 and 4, empty to past-capacity occupancy, leaves
// drawn from a small pool so many blocks share one — the one-pass eviction
// picks the same blocks for the same levels in the same order as the
// level-by-level reference, and leaves the same survivors behind.
func TestEvictMatchesLevelByLevel(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 15))
	for _, L := range []int{1, 4, 11, 14, 20} {
		for _, Z := range []int{1, 4} {
			g, err := tree.NewGeometry(L, Z, 8)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 60; trial++ {
				n := rng.IntN(251)
				pool := 1 + rng.IntN(int(min(g.Leaves(), 64))) // distinct leaves in play
				got, want := New(0), New(0)
				for i := 0; i < n; i++ {
					leaf := rng.Uint64() % g.Leaves()
					if rng.IntN(2) == 0 {
						leaf = uint64(rng.IntN(pool)) * (g.Leaves() / uint64(pool))
					}
					b := Block{Addr: rng.Uint64() % 1024, Leaf: leaf, Data: []byte{byte(i)}}
					got.Put(b)
					want.Put(b)
				}
				// Every path of a small tree, a sample of a big one.
				paths := []uint64{0, g.Leaves() - 1, rng.Uint64() % g.Leaves()}
				if g.Leaves() <= 16 {
					paths = paths[:0]
					for l := uint64(0); l < g.Leaves(); l++ {
						paths = append(paths, l)
					}
				}
				for _, pathLeaf := range paths {
					// Half the evictions run under an in-flight window that
					// holds back a band of levels: from the root, or from
					// below a treetop.
					lo, hi := 0, 0
					if rng.IntN(2) == 0 {
						hi = rng.IntN(g.L + 2)
						if rng.IntN(2) == 0 {
							lo = rng.IntN(hi + 1)
						}
					}
					a, b := got.EvictForPath(g, pathLeaf, lo, hi), evictByLevel(want, g, pathLeaf, lo, hi)
					for lev := range b {
						if lev >= lo && lev < hi && len(a[lev]) != 0 {
							t.Fatalf("L=%d Z=%d path=%d: level %d holds %v inside the held band [%d,%d)", L, Z, pathLeaf, lev, a[lev], lo, hi)
						}
						if !slices.EqualFunc(a[lev], b[lev], func(x, y Block) bool {
							return x.Addr == y.Addr && x.Leaf == y.Leaf && &x.Data[0] == &y.Data[0]
						}) {
							t.Fatalf("L=%d Z=%d n=%d path=%d level %d: got %v, reference %v",
								L, Z, n, pathLeaf, lev, a[lev], b[lev])
						}
					}
					if !slices.Equal(got.Addresses(), want.Addresses()) || got.Len() != want.Len() {
						t.Fatalf("L=%d Z=%d n=%d path=%d: survivors %v (len %d), reference %v",
							L, Z, n, pathLeaf, got.Addresses(), got.Len(), want.Addresses())
					}
					for _, addr := range got.Addresses() {
						if got.Get(addr) == nil {
							t.Fatalf("index holds evicted address %#x", addr)
						}
					}
				}
			}
		}
	}
}

// TestBlocksDeepCopy is the snapshot-aliasing regression: Blocks() must
// return payload copies, because a durable snapshot can be serialized while
// the controller keeps mutating stash blocks in place.
func TestBlocksDeepCopy(t *testing.T) {
	s := New(0)
	s.Put(Block{Addr: 1, Leaf: 2, Data: []byte{0xAA, 0xBB}})
	snap := s.Blocks()
	if len(snap) != 1 || snap[0].Data[0] != 0xAA {
		t.Fatal("snapshot wrong before mutation")
	}
	// Controller keeps running: the live block is mutated in place.
	s.Get(1).Data[0] = 0x00
	if snap[0].Data[0] != 0xAA {
		t.Fatal("snapshot aliases live stash memory")
	}
	// And the other direction: scribbling on the snapshot must not reach
	// the stash.
	snap[0].Data[1] = 0x00
	if s.Get(1).Data[1] != 0xBB {
		t.Fatal("stash aliases snapshot memory")
	}
}

// TestSortedIndexConsistent: the address-sorted residents must match a model
// of the contents through arbitrary Put/Remove/Evict interleavings.
func TestSortedIndexConsistent(t *testing.T) {
	g, _ := tree.NewGeometry(5, 2, 8)
	rng := rand.New(rand.NewPCG(3, 3))
	s := New(0)
	live := map[uint64]bool{}
	for i := 0; i < 3000; i++ {
		switch rng.IntN(5) {
		case 0, 1, 2:
			a := rng.Uint64() % 64
			s.Put(Block{Addr: a, Leaf: rng.Uint64() % g.Leaves()})
			live[a] = true
		case 3:
			a := rng.Uint64() % 64
			s.Remove(a)
			delete(live, a)
		case 4:
			leaf := rng.Uint64() % g.Leaves()
			for _, bucket := range s.EvictForPath(g, leaf, 0, 0) {
				for _, b := range bucket {
					delete(live, b.Addr)
				}
			}
		}
		addrs := s.Addresses()
		if len(addrs) != len(live) || s.Len() != len(live) {
			t.Fatalf("op %d: index has %d addrs, map %d, want %d", i, len(addrs), s.Len(), len(live))
		}
		for j, a := range addrs {
			if !live[a] {
				t.Fatalf("op %d: index holds dead address %#x", i, a)
			}
			if j > 0 && addrs[j-1] >= a {
				t.Fatalf("op %d: index not sorted at %d", i, j)
			}
		}
	}
}

// TestSteadyStateAllocs: the per-access stash work — path blocks in, target
// block updated, eviction out — must not allocate once warm.
func TestSteadyStateAllocs(t *testing.T) {
	g, _ := tree.NewGeometry(6, 4, 16)
	rng := rand.New(rand.NewPCG(9, 9))
	s := New(0)
	bufs := make([][]byte, 64)
	for i := range bufs {
		bufs[i] = make([]byte, 16)
	}
	step := func() {
		// Model one access: a few blocks enter, one is updated, a path is
		// evicted. Payload buffers recirculate like the backend's free list.
		n := 0
		for i := 0; i < 8; i++ {
			a := rng.Uint64() % 48
			if s.Get(a) == nil && n < len(bufs) {
				s.Put(Block{Addr: a, Leaf: rng.Uint64() % g.Leaves(), Data: bufs[n]})
				n++
			}
		}
		leaf := rng.Uint64() % g.Leaves()
		n = 0
		for _, bucket := range s.EvictForPath(g, leaf, 0, 0) {
			for _, b := range bucket {
				if n < len(bufs) {
					bufs[n] = b.Data
					n++
				}
			}
		}
		s.Note()
	}
	for i := 0; i < 200; i++ {
		step() // warm the free lists and scratch
	}
	if n := testing.AllocsPerRun(200, step); n > 0.1 {
		t.Fatalf("steady-state stash work allocates %.2f/op, want 0", n)
	}
}

func TestString(t *testing.T) {
	s := New(5)
	s.Put(Block{Addr: 1})
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

// BenchmarkEvictForPath is one access's worth of stash work at the benchmark
// workloads' shape (L=14, Z=4): the blocks of a freshly read path join a
// small persistent stash (~60 occupants in all) and one path is evicted.
func BenchmarkEvictForPath(b *testing.B) {
	g, _ := tree.NewGeometry(14, 4, 80)
	rng := rand.New(rand.NewPCG(4, 4))
	s := New(0)
	next := uint64(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pathLeaf := rng.Uint64() % g.Leaves()
		for s.Len() < 60 {
			// Half the arrivals sat on the path just read, so they share a
			// prefix with it; the rest are remapped to fresh leaves.
			leaf := rng.Uint64() % g.Leaves()
			if next%2 == 0 {
				keep := uint(rng.IntN(g.L + 1))
				mask := g.Leaves() - 1
				leaf = pathLeaf&^(mask>>keep) | leaf&(mask>>keep)
			}
			s.Put(Block{Addr: next, Leaf: leaf})
			next++
		}
		s.EvictForPath(g, pathLeaf, 0, 0)
	}
}
