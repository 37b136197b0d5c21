package backend

import (
	"math/rand/v2"
	"net"
	"path/filepath"
	"testing"

	"freecursive/internal/bucketd"
	"freecursive/internal/crypt"
	"freecursive/internal/mem"
)

// TestTreetopLevelsFromBudget: the treetop is as many whole levels from the
// root as fit the budget, never the leaf level; zero is the default budget
// and a negative one none.
func TestTreetopLevelsFromBudget(t *testing.T) {
	g := newGeom(t, 13, 4, 80) // a benchmark shard: 14 levels of 388-byte bucket bodies
	body := g.Z * (slotHeader + g.BlockBytes)
	for _, tc := range []struct {
		budget, levels int
	}{
		{-1, 0},
		{body - 1, 0},
		{body, 1},
		{3*body - 1, 1},
		{3 * body, 2},
		{0, 7}, // 64 KB holds 127 bodies (48 KB), not 255
		{DefaultTreetopBytes, 7},
		{1 << 40, g.L}, // everything but the leaves
	} {
		p, err := NewPathORAM(Config{Geometry: g, TreetopBytes: tc.budget})
		if err != nil {
			t.Fatal(err)
		}
		if p.TreetopLevels() != tc.levels {
			t.Errorf("budget %d: %d levels cached, want %d", tc.budget, p.TreetopLevels(), tc.levels)
		}
		if want := (1<<tc.levels - 1) * body; p.TreetopBytes() != want {
			t.Errorf("budget %d: treetop of %d bytes, want %d", tc.budget, p.TreetopBytes(), want)
		}
		if tc.levels > 0 && TreetopBytesFor(g, tc.levels) != p.TreetopBytes() {
			t.Errorf("TreetopBytesFor(%d levels) = %d, the treetop holds %d", tc.levels, TreetopBytesFor(g, tc.levels), p.TreetopBytes())
		}
	}
	if root, err := NewPathORAM(Config{Geometry: newGeom(t, 0, 4, 16)}); err != nil || root.TreetopLevels() != 0 {
		t.Errorf("a one-bucket tree cached its leaf level (err %v)", err)
	}
}

// TestTreetopSnapshotRoundTrip: the treetop is trusted state like the stash.
// A controller that ran over map, file or remote memory — the last with its
// in-flight window full — hands out its treetop, stash and seed register;
// a new controller over the same memory takes them in and serves every
// block the first one held, then keeps going. The depth restored is the
// snapshot's, not the one the new controller was configured with.
func TestTreetopSnapshotRoundTrip(t *testing.T) {
	g := newGeom(t, 8, 4, 16)
	srv := bucketd.New(bucketd.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	shared := mem.NewStore()
	file := filepath.Join(t.TempDir(), "tree.oram")
	for name, open := range map[string]func() (mem.Backend, error){
		"map": func() (mem.Backend, error) { return shared, nil },
		"file": func() (mem.Backend, error) {
			return mem.OpenFile(mem.FileConfig{Path: file, Geometry: g, SlotBytes: SealedBucketBytes(g)})
		},
		"remote": func() (mem.Backend, error) {
			return mem.DialRemote(mem.RemoteConfig{Addr: ln.Addr().String(), Namespace: "backend/treetop"})
		},
	} {
		t.Run(name, func(t *testing.T) {
			build := func(treetopBytes int) Config {
				st, err := open()
				if err != nil {
					t.Fatal(err)
				}
				c, err := crypt.NewBucketCipher([]byte("0123456789abcdef"), crypt.SeedGlobal)
				if err != nil {
					t.Fatal(err)
				}
				return Config{Geometry: g, Store: st, Cipher: c, TreetopBytes: treetopBytes}
			}
			r := newWindowRefOn(t, build(TreetopBytesFor(g, testTreetop)), 5)
			depth := 1
			if r.p.Signal() != nil {
				depth = maxWindow
			}
			run := func(n int) {
				for i := 0; i < n; i++ {
					if len(r.flying) == depth {
						r.complete()
					}
					r.begin(r.rng.Uint64()%512, r.rng.IntN(2) == 0)
				}
				for len(r.flying) > 0 {
					r.complete()
				}
			}
			run(2000)

			levels, top := r.p.Treetop()
			stash, seed := r.p.Stash().Blocks(), r.p.Cipher().GlobalSeed()
			if levels != testTreetop || len(top) == 0 {
				t.Fatalf("snapshot of %d levels holding %d buckets: nothing to round-trip", levels, len(top))
			}
			if err := r.p.Close(); err != nil {
				t.Fatal(err)
			}

			cfg := build(0) // configured with the default budget: the snapshot's depth must win
			p, err := NewPathORAM(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			p.Cipher().SetGlobalSeed(seed)
			for _, b := range stash {
				p.Stash().Put(b)
			}
			if err := p.RestoreTreetop(levels, top); err != nil {
				t.Fatal(err)
			}
			if p.TreetopLevels() != testTreetop {
				t.Fatalf("%d levels cached after the restore, want the snapshot's %d", p.TreetopLevels(), testTreetop)
			}
			r.p = p
			for addr := range r.leaf {
				r.begin(addr, false)
				r.complete()
			}
			run(500)
		})
	}
}

// TestTreetopAndStashStayDisjoint: a block absorbed out of the treetop leaves
// it at that moment, not when the write-back rewrites the bucket, so trusted
// memory never holds an address twice even when an access is cut short
// between absorb and evict. complete returns no error in between; an Update
// that panics is the one way there. What Treetop and the stash hold then is
// still a snapshot RestoreTreetop accepts, and every block reads back.
func TestTreetopAndStashStayDisjoint(t *testing.T) {
	g := newGeom(t, 6, 4, 32)
	p, err := NewPathORAM(Config{Geometry: g, TreetopBytes: TreetopBytesFor(g, testTreetop)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(11, 0))
	leaf, val := map[uint64]uint64{}, map[uint64]byte{}
	var cuts int
	for i := 0; i < 600; i++ {
		addr, next := rng.Uint64()%64, rng.Uint64N(g.Leaves())
		req := Request{Op: OpRead, Addr: addr, Leaf: leaf[addr], NewLeaf: next, Update: func(d []byte, _ bool) []byte {
			if d[0] != val[addr] {
				t.Fatalf("access %d: block %d reads %d, want %d", i, addr, d[0], val[addr])
			}
			if i%10 == 9 {
				panic("cut short")
			}
			d[0]++
			return d
		}}
		func() {
			defer func() {
				if recover() == nil {
					leaf[addr] = next
					val[addr]++
					return
				}
				cuts++
				levels, top := p.Treetop()
				q, err := NewPathORAM(Config{Geometry: g})
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range p.Stash().Blocks() {
					q.Stash().Put(b)
				}
				if err := q.RestoreTreetop(levels, top); err != nil {
					t.Fatalf("access %d cut short: %v", i, err)
				}
			}()
			if _, err := p.Access(req); err != nil {
				t.Fatal(err)
			}
		}()
	}
	if cuts == 0 {
		t.Fatal("no access was cut short")
	}
}
