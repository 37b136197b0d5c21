package backend

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"testing"

	"freecursive/internal/mem"
	"freecursive/internal/mem/memtest"
	"freecursive/internal/tree"
)

// maxWindow is the deepest in-flight window the tests drive: the depth the
// store keeps over remote memory.
const maxWindow = 4

// windowRef drives a PathORAM over a split-phase memory through Begin and
// Complete, keeping the leaf map a frontend would and a flat model of the
// contents. Accesses complete in the order they began, so the model advances
// at completion and every result is checked against it there.
type windowRef struct {
	t      testing.TB
	p      *PathORAM
	g      tree.Geometry
	rng    *rand.Rand
	leaf   map[uint64]uint64
	data   map[uint64][]byte
	flying []Request
}

// newWindowRef builds the reference over a plaintext tree in a split-phase
// memory, its top k levels cached.
func newWindowRef(t testing.TB, g tree.Geometry, seed uint64, k int) *windowRef {
	t.Helper()
	st := memtest.Wrap(mem.NewStore())
	st.Capture = true
	r := newWindowRefOn(t, Config{Geometry: g, Store: st, TreetopBytes: TreetopBytesFor(g, k)}, seed)
	if r.p.TreetopLevels() != k {
		t.Fatalf("treetop of %d levels, want %d", r.p.TreetopLevels(), k)
	}
	if r.p.Signal() == nil {
		t.Fatal("a split-phase memory was not recognized as one")
	}
	return r
}

// newWindowRefOn builds the reference over the backend cfg describes.
func newWindowRefOn(t testing.TB, cfg Config, seed uint64) *windowRef {
	t.Helper()
	p, err := NewPathORAM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &windowRef{
		t: t, p: p, g: cfg.Geometry, rng: rand.New(rand.NewPCG(seed, 29)),
		leaf: map[uint64]uint64{}, data: map[uint64][]byte{},
	}
}

// begin issues one access to addr; the leaf map advances at once, as the
// frontend's position map does in Start.
func (r *windowRef) begin(addr uint64, write bool) {
	r.t.Helper()
	cur, ok := r.leaf[addr]
	if !ok {
		cur = r.rng.Uint64() % r.g.Leaves()
	}
	nl := r.rng.Uint64() % r.g.Leaves()
	r.leaf[addr] = nl
	req := Request{Op: OpRead, Addr: addr, Leaf: cur, NewLeaf: nl}
	if write {
		req.Op = OpWrite
		req.Data = make([]byte, r.g.BlockBytes)
		binary.BigEndian.PutUint64(req.Data, r.rng.Uint64())
	}
	if err := r.p.Begin(req); err != nil {
		r.t.Fatalf("begin %#x: %v", addr, err)
	}
	r.flying = append(r.flying, req)
}

func (r *windowRef) complete() {
	r.t.Helper()
	req := r.flying[0]
	r.flying = r.flying[1:]
	res, err := r.p.Complete()
	if err != nil {
		r.t.Fatalf("complete %#x: %v", req.Addr, err)
	}
	want := r.data[req.Addr]
	if want == nil {
		want = make([]byte, r.g.BlockBytes)
	}
	if !bytes.Equal(res.Data, want) {
		r.t.Fatalf("access %#x: got %x want %x", req.Addr, res.Data[:8], want[:8])
	}
	if req.Op == OpWrite {
		r.data[req.Addr] = req.Data
	}
}

// checkInvariant decodes the whole (plaintext) tree and requires THE Path
// ORAM invariant (§3.1.1) of a drained window: every block the model knows
// exists exactly once, in the stash or in a bucket on the path to its leaf.
func (r *windowRef) checkInvariant() {
	r.t.Helper()
	if n := r.p.InFlight(); n != 0 {
		r.t.Fatalf("invariant checked with %d accesses in flight", n)
	}
	copies := map[uint64]int{}
	for _, a := range r.p.Stash().Addresses() {
		copies[a]++
	}
	loc := treeBlocks(r.t, r.p)
	for addr, idxs := range loc {
		copies[addr] += len(idxs)
	}
	for addr, leaf := range r.leaf {
		if copies[addr] != 1 {
			r.t.Fatalf("block %#x exists %d times", addr, copies[addr])
		}
		if len(loc[addr]) == 0 {
			continue
		}
		idx := loc[addr][0]
		onPath := false
		for _, p := range r.g.PathIndices(leaf, nil) {
			onPath = onPath || p == idx
		}
		if !onPath {
			r.t.Fatalf("block %#x in bucket %d, off its path to leaf %d", addr, idx, leaf)
		}
	}
	if len(copies) != len(r.leaf) {
		r.t.Fatalf("tree and stash hold %d distinct blocks, the model %d", len(copies), len(r.leaf))
	}
}

// TestWindowInvariant (search): random reads and writes over few enough
// addresses that the window often holds two accesses to one — read after
// write, write after write — begun and completed in a random interleaving
// at every depth. Every value matches the flat model, and at every point
// the window drains the Path ORAM invariant holds — with no treetop, with
// one the stale band starts under, and with all but the leaf level cached.
func TestWindowInvariant(t *testing.T) {
	g := newGeom(t, 6, 4, 16)
	for _, k := range []int{0, testTreetop, g.L} {
		t.Run(fmt.Sprintf("treetop=%d", k), func(t *testing.T) { windowInvariant(t, g, k) })
	}
}

func windowInvariant(t *testing.T, g tree.Geometry, k int) {
	for depth := 1; depth <= maxWindow; depth++ {
		for seed := uint64(1); seed <= 4; seed++ {
			r := newWindowRef(t, g, seed, k)
			checks := 0
			for i := 0; i < 1500; i++ {
				for len(r.flying) == depth || (len(r.flying) > 0 && r.rng.IntN(3) == 0) {
					r.complete()
					if len(r.flying) == 0 {
						r.checkInvariant()
						checks++
					}
				}
				r.begin(r.rng.Uint64()%24, r.rng.IntN(2) == 0)
			}
			for len(r.flying) > 0 {
				r.complete()
			}
			r.checkInvariant()
			if checks < 10 {
				t.Fatalf("depth %d seed %d: window drained only %d times", depth, seed, checks)
			}
			if r.p.Counters().StashOverflow != 0 {
				t.Fatalf("depth %d seed %d: stash overflowed (max %d)", depth, seed, r.p.Counters().StashMax)
			}
		}
	}
}

// TestWindowStashBound runs 10^5 accesses with the window permanently full,
// at depth 1 and at the deepest, over a tree at the paper's 50% utilization.
// What the window costs the stash is the blocks held back from the buckets
// in memory that the accesses in flight share. With no treetop and the
// window never empty the root is never written, and level d only when no
// other path in the window shares it — the tree loses about log2(depth)+1
// levels off its top, Z slots each, and the overflow those absorbed. A
// treetop takes its levels out of that: they are never stale, so the band
// held back starts under it and is empty whenever two paths part inside it.
// Measured peaks at this size, depths 1 and 4: 6 and 36 with no treetop, 6
// and 20 with three levels cached, 6 and 6 with all but the leaves. The peak
// must stay far under the capacity (200) the serial bound was chosen for,
// and a treetop must not raise it.
func TestWindowStashBound(t *testing.T) {
	accesses := 100_000
	if testing.Short() {
		accesses = 10_000
	}
	g := newGeom(t, 8, 4, 16)
	blocks := g.Leaves() * uint64(g.Z) // N = Z·2^L: half the tree's slots
	peak := map[[2]int]uint64{}        // (treetop levels, depth) -> stash max
	for _, k := range []int{0, testTreetop, g.L} {
		for _, depth := range []int{1, maxWindow} {
			r := newWindowRef(t, g, 77, k)
			for i := 0; i < accesses; i++ {
				if len(r.flying) == depth {
					r.complete()
				}
				r.begin(r.rng.Uint64()%blocks, r.rng.IntN(2) == 0)
			}
			for len(r.flying) > 0 {
				r.complete()
			}
			r.checkInvariant()
			c := r.p.Counters()
			peak[[2]int{k, depth}] = c.StashMax
			t.Logf("treetop %d, depth %d: stash max %d over %d accesses", k, depth, c.StashMax, accesses)
			if c.StashOverflow != 0 || c.StashMax >= 200 {
				t.Fatalf("treetop %d, depth %d: stash max %d, %d overflows", k, depth, c.StashMax, c.StashOverflow)
			}
		}
	}
	if p := peak[[2]int{0, maxWindow}]; p >= 100 {
		t.Fatalf("stash max %d at depth %d (%d at depth 1): the window holds back far more than the top of the tree",
			p, maxWindow, peak[[2]int{0, 1}])
	}
	for _, k := range []int{testTreetop, g.L} {
		if with, without := peak[[2]int{k, maxWindow}], peak[[2]int{0, maxWindow}]; with > without {
			t.Fatalf("stash max %d at depth %d with %d levels cached, %d with none: the treetop made the window dearer",
				with, maxWindow, k, without)
		}
	}
}

// TestWindowRefusesSynchronousOverlap: over a memory that reads paths
// synchronously there is no window — a second Begin is an error, not a
// silent reordering — and Access refuses to cut into a window.
func TestWindowRefusesSynchronousOverlap(t *testing.T) {
	p := newORAM(t, newGeom(t, 4, 4, 16), true)
	if p.Signal() != nil || !p.Ready() {
		t.Fatal("a map store was taken for a split-phase memory")
	}
	req := Request{Op: OpRead, Addr: 1, Leaf: 1, NewLeaf: 2}
	if err := p.Begin(req); err != nil {
		t.Fatal(err)
	}
	if err := p.Begin(req); err == nil {
		t.Fatal("second Begin over synchronous memory accepted")
	}
	if _, err := p.Access(req); err == nil {
		t.Fatal("Access accepted with an access in flight")
	}
	if _, err := p.Complete(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Complete(); err == nil {
		t.Fatal("Complete accepted with nothing in flight")
	}
}
