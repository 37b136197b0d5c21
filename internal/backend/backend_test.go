package backend

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"freecursive/internal/adversary"
	"freecursive/internal/crypt"
	"freecursive/internal/stats"
	"freecursive/internal/tree"
)

func newGeom(t testing.TB, l, z, b int) tree.Geometry {
	t.Helper()
	g, err := tree.NewGeometry(l, z, b)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testTreetop is the treetop depth the package's own trees are built with:
// deep enough that most evictions cross the cache's lower edge, shallow
// enough that real blocks still reach untrusted memory in small trees.
const testTreetop = 3

func newORAM(t testing.TB, g tree.Geometry, encrypted bool) *PathORAM {
	t.Helper()
	cfg := Config{Geometry: g, TreetopBytes: TreetopBytesFor(g, min(testTreetop, g.L))}
	if encrypted {
		c, err := crypt.NewBucketCipher([]byte("0123456789abcdef"), crypt.SeedGlobal)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cipher = c
	}
	p, err := NewPathORAM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// refModel drives an ORAM and a flat map with the same random ops, tracking
// the leaf map the frontend would maintain.
type refModel struct {
	p    *PathORAM
	g    tree.Geometry
	rng  *rand.Rand
	leaf map[uint64]uint64
	data map[uint64][]byte
}

func newRef(t testing.TB, encrypted bool) *refModel {
	g := newGeom(t, 8, 4, 16)
	return &refModel{
		p:    newORAM(t, g, encrypted),
		g:    g,
		rng:  rand.New(rand.NewPCG(11, 13)),
		leaf: map[uint64]uint64{},
		data: map[uint64][]byte{},
	}
}

func (r *refModel) step(t testing.TB, addr uint64, write bool) {
	t.Helper()
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
	res, err := r.p.Access(req)
	if err != nil {
		t.Fatalf("access %#x: %v", addr, err)
	}
	want := r.data[addr]
	if want == nil {
		want = make([]byte, r.g.BlockBytes)
	}
	if !bytes.Equal(res.Data, want) {
		t.Fatalf("read %#x: got %x want %x", addr, res.Data[:8], want[:8])
	}
	if write {
		r.data[addr] = req.Data
	}
}

func TestReadYourWritesPlain(t *testing.T)     { runRYW(t, false) }
func TestReadYourWritesEncrypted(t *testing.T) { runRYW(t, true) }

func runRYW(t *testing.T, encrypted bool) {
	r := newRef(t, encrypted)
	for i := 0; i < 3000; i++ {
		r.step(t, r.rng.Uint64()%256, r.rng.IntN(2) == 0)
	}
	if r.p.Counters().StashOverflow != 0 {
		t.Fatalf("stash overflowed; max=%d", r.p.Counters().StashMax)
	}
}

// TestPathInvariant: after every access, each block must sit on the path of
// its current leaf or in the stash — THE Path ORAM invariant (§3.1.1).
func TestPathInvariant(t *testing.T) {
	r := newRef(t, false)
	check := func() {
		inStash := map[uint64]bool{}
		for _, a := range r.p.Stash().Addresses() {
			inStash[a] = true
		}
		// Decode every bucket and record where each block is.
		loc := treeBlocks(t, r.p)
		for addr, leaf := range r.leaf {
			if inStash[addr] {
				continue
			}
			if len(loc[addr]) != 1 {
				t.Fatalf("block %#x mapped to leaf %d is in buckets %v", addr, leaf, loc[addr])
			}
			idx := loc[addr][0]
			onPath := false
			for _, p := range r.g.PathIndices(leaf, nil) {
				if p == idx {
					onPath = true
					break
				}
			}
			if !onPath {
				t.Fatalf("block %#x in bucket %d, off its path to leaf %d", addr, idx, leaf)
			}
		}
	}
	for i := 0; i < 400; i++ {
		r.step(t, r.rng.Uint64()%64, r.rng.IntN(2) == 0)
		if i%20 == 0 {
			check()
		}
	}
	check()
}

// treeBlocks decodes the whole plaintext tree, the cached levels out of the
// treetop and the rest out of memory, into address -> heap indices holding
// it. A cached level must have left nothing in memory.
func treeBlocks(t testing.TB, p *PathORAM) map[uint64][]uint64 {
	t.Helper()
	loc := map[uint64][]uint64{}
	k, top := p.Treetop()
	for _, bk := range top {
		for _, b := range bk.Blocks {
			loc[b.Addr] = append(loc[b.Addr], bk.Index)
		}
	}
	g := p.Geometry()
	for idx := uint64(0); idx < g.Buckets(); idx++ {
		raw, err := p.Store().Read(idx)
		if err != nil {
			t.Fatal(err)
		}
		if raw != nil && idx < uint64(1)<<uint(k)-1 {
			t.Fatalf("bucket %d of the %d cached levels was written to memory", idx, k)
		}
		for _, b := range p.decodeBucket(raw, nil) {
			loc[b.Addr] = append(loc[b.Addr], idx)
		}
	}
	return loc
}

func TestReadRmvRemoves(t *testing.T) {
	r := newRef(t, false)
	r.step(t, 7, true)
	cur := r.leaf[7]
	res, err := r.p.Access(Request{Op: OpReadRmv, Addr: 7, Leaf: cur})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || !bytes.Equal(res.Data, r.data[7]) {
		t.Fatal("readrmv returned wrong data")
	}
	// The block is gone: a subsequent read at any leaf finds a zero block.
	res, err = r.p.Access(Request{Op: OpRead, Addr: 7, Leaf: cur, NewLeaf: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("block still present after readrmv")
	}
}

func TestAppendRoundTrip(t *testing.T) {
	g := newGeom(t, 6, 4, 16)
	p := newORAM(t, g, true)
	data := []byte("hello, stash....")
	if _, err := p.Access(Request{Op: OpAppend, Addr: 3, Leaf: 9, Data: data}); err != nil {
		t.Fatal(err)
	}
	// Appending a duplicate must fail (§4.2.2: no duplicate blocks).
	if _, err := p.Access(Request{Op: OpAppend, Addr: 3, Leaf: 9, Data: data}); err == nil {
		t.Fatal("duplicate append accepted")
	}
	res, err := p.Access(Request{Op: OpRead, Addr: 3, Leaf: 9, NewLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || !bytes.Equal(res.Data, data) {
		t.Fatal("appended block not retrievable")
	}
}

func TestAppendDoesNotTouchTree(t *testing.T) {
	g := newGeom(t, 6, 4, 16)
	p := newORAM(t, g, false)
	before := p.Store().Stats().Reads + p.Store().Stats().Writes
	if _, err := p.Access(Request{Op: OpAppend, Addr: 3, Leaf: 9, Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if p.Store().Stats().Reads+p.Store().Stats().Writes != before {
		t.Fatal("append generated tree traffic")
	}
	if p.Counters().Appends != 1 {
		t.Fatal("append not counted")
	}
}

func TestLeafRangeValidation(t *testing.T) {
	g := newGeom(t, 4, 4, 16)
	p := newORAM(t, g, false)
	if _, err := p.Access(Request{Op: OpRead, Addr: 1, Leaf: 16, NewLeaf: 0}); err == nil {
		t.Fatal("out-of-range leaf accepted")
	}
	if _, err := p.Access(Request{Op: OpRead, Addr: 1, Leaf: 0, NewLeaf: 99}); err == nil {
		t.Fatal("out-of-range new leaf accepted")
	}
	if _, err := p.Access(Request{Op: OpAppend, Addr: 1, Leaf: 77}); err == nil {
		t.Fatal("append with bad leaf accepted")
	}
	if _, err := p.Access(Request{Op: Op(42), Addr: 1}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

// TestStashBounded: under sustained random traffic with Z=4 the stash
// stays far below the 200-block capacity ([34]'s negligible-overflow
// result; Z>=4 was validated experimentally in [21]).
func TestStashBounded(t *testing.T) {
	r := newRef(t, false)
	for i := 0; i < 6000; i++ {
		r.step(t, r.rng.Uint64()%200, r.rng.IntN(2) == 0)
	}
	if max := r.p.Counters().StashMax; max > 30 {
		t.Fatalf("stash high-water %d suspiciously large for Z=4", max)
	}
}

// TestUpdateCallback: read-modify-write happens inside one access.
func TestUpdateCallback(t *testing.T) {
	g := newGeom(t, 5, 4, 16)
	p := newORAM(t, g, true)
	if _, err := p.Access(Request{Op: OpWrite, Addr: 1, Leaf: 3, NewLeaf: 4,
		Data: []byte("version-1.......")}); err != nil {
		t.Fatal(err)
	}
	var sawOld []byte
	_, err := p.Access(Request{Op: OpRead, Addr: 1, Leaf: 4, NewLeaf: 5,
		Update: func(old []byte, found bool) []byte {
			if !found {
				t.Fatal("existing block reported absent")
			}
			sawOld = bytes.Clone(old)
			return []byte("version-2.......")
		}})
	if err != nil {
		t.Fatal(err)
	}
	if string(sawOld) != "version-1......." {
		t.Fatalf("update saw %q", sawOld)
	}
	res, err := p.Access(Request{Op: OpRead, Addr: 1, Leaf: 5, NewLeaf: 6})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Data) != "version-2......." {
		t.Fatalf("after update read %q", res.Data)
	}
}

// TestTamperedBucketIsSafe: garbage buckets must decode without panics or
// stash corruption of existing trusted blocks.
func TestTamperedBucketIsSafe(t *testing.T) {
	r := newRef(t, true)
	for i := 0; i < 200; i++ {
		r.step(t, r.rng.Uint64()%32, true)
	}
	// Corrupt all of memory.
	adversary.Garbler{}.GarbleAll(r.p.Store(), r.g.Buckets())
	// Accesses still complete (garbage data, but no crash / no duplicate
	// stash entries). Privacy property 1: fixed-size writes continue.
	for i := 0; i < 50; i++ {
		addr := r.rng.Uint64() % 32
		if _, err := r.p.Access(Request{
			Op: OpRead, Addr: addr, Leaf: r.leaf[addr], NewLeaf: 0,
		}); err != nil {
			t.Fatalf("access after tamper: %v", err)
		}
		r.leaf[addr] = 0
	}
}

// TestWireBytes checks the Figure-3 padding model.
func TestWireBytes(t *testing.T) {
	g64 := newGeom(t, 24, 4, 64)
	if w := WireBucketBytes(g64); w != 320 {
		t.Fatalf("64B blocks: wire bucket %d want 320", w)
	}
	g32 := newGeom(t, 20, 4, 32)
	if w := WireBucketBytes(g32); w != 192 {
		t.Fatalf("32B blocks: wire bucket %d want 192", w)
	}
	if pw := PathWireBytes(g64); pw != 2*25*320 {
		t.Fatalf("path wire bytes %d", pw)
	}
}

// TestAccountingParity: the accounting backend — the paper's hardware model,
// which moves whole paths — must charge exactly the same bytes as the
// functional backend with the treetop off for the same op sequence.
func TestAccountingParity(t *testing.T) {
	g := newGeom(t, 8, 4, 16)
	ctrF := &stats.Counters{}
	pf, err := NewPathORAM(Config{Geometry: g, Counters: ctrF, TreetopBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctrA := &stats.Counters{}
	pa, err := NewAccounting(g, ctrA)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	leaf := map[uint64]uint64{}
	for i := 0; i < 500; i++ {
		addr := rng.Uint64() % 64
		cur, ok := leaf[addr]
		if !ok {
			cur = rng.Uint64() % g.Leaves()
		}
		nl := rng.Uint64() % g.Leaves()
		leaf[addr] = nl
		req := Request{Op: OpRead, Addr: addr, Leaf: cur, NewLeaf: nl, PosMap: i%3 == 0}
		if _, err := pf.Access(req); err != nil {
			t.Fatal(err)
		}
		if _, err := pa.Access(req); err != nil {
			t.Fatal(err)
		}
	}
	if ctrF.DataBytes != ctrA.DataBytes || ctrF.PosMapBytes != ctrA.PosMapBytes {
		t.Fatalf("byte accounting diverged: functional %d/%d accounting %d/%d",
			ctrF.DataBytes, ctrF.PosMapBytes, ctrA.DataBytes, ctrA.PosMapBytes)
	}
}

// TestAccountingSemantics (property): accounting backend behaves as a flat
// memory for arbitrary op sequences.
func TestAccountingSemantics(t *testing.T) {
	g := newGeom(t, 6, 4, 8)
	f := func(seed uint64) bool {
		a, err := NewAccounting(g, nil)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewPCG(seed, 3))
		ref := map[uint64][]byte{}
		for i := 0; i < 200; i++ {
			addr := rng.Uint64() % 16
			switch rng.IntN(4) {
			case 0: // write
				d := make([]byte, 8)
				binary.BigEndian.PutUint64(d, rng.Uint64())
				if _, err := a.Access(Request{Op: OpWrite, Addr: addr, Data: d}); err != nil {
					return false
				}
				ref[addr] = d
			case 1: // read
				res, err := a.Access(Request{Op: OpRead, Addr: addr})
				if err != nil {
					return false
				}
				want := ref[addr]
				if want == nil {
					want = make([]byte, 8)
				}
				if !bytes.Equal(res.Data, want) {
					return false
				}
			case 2: // readrmv + append (move out and back)
				res, err := a.Access(Request{Op: OpReadRmv, Addr: addr})
				if err != nil {
					return false
				}
				if _, err := a.Access(Request{Op: OpAppend, Addr: addr, Data: res.Data}); err != nil {
					return false
				}
			case 3: // update
				newVal := byte(rng.Uint64())
				_, err := a.Access(Request{Op: OpRead, Addr: addr,
					Update: func(old []byte, found bool) []byte {
						out := bytes.Clone(old)
						if len(out) < 8 {
							out = make([]byte, 8)
						}
						out[0] = newVal
						return out
					}})
				if err != nil {
					return false
				}
				d := ref[addr]
				if d == nil {
					d = make([]byte, 8)
				}
				d = bytes.Clone(d)
				d[0] = newVal
				ref[addr] = d
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestAccountingPresence pins the accounting backend's absent-vs-present
// semantics: map membership in the payload map is the presence bit, Found
// reports presence BEFORE the access, and every materializing op stores a
// full-size zero-padded payload (there are no zero-length payloads to
// distinguish from absence).
func TestAccountingPresence(t *testing.T) {
	g := newGeom(t, 6, 4, 8)
	a, err := NewAccounting(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustAccess := func(req Request) Result {
		t.Helper()
		res, err := a.Access(req)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// A never-touched block is absent.
	if res := mustAccess(Request{Op: OpRead, Addr: 1}); res.Found {
		t.Fatal("never-written block reported present")
	}
	// ... but a plain read materializes it (the ORAM is logically
	// zero-initialized, and a read remaps the block like any access).
	if res := mustAccess(Request{Op: OpRead, Addr: 1}); !res.Found {
		t.Fatal("block not present after first read")
	}

	// A write with a short payload materializes a full-size, zero-padded
	// block and reports the pre-access absence.
	if res := mustAccess(Request{Op: OpWrite, Addr: 2, Data: []byte{0xAB}}); res.Found {
		t.Fatal("write of fresh block reported present")
	}
	res := mustAccess(Request{Op: OpRead, Addr: 2})
	if !res.Found || len(res.Data) != g.BlockBytes || res.Data[0] != 0xAB || res.Data[1] != 0 {
		t.Fatalf("short write not zero-padded to full size: %v", res.Data)
	}

	// Readrmv removes: the block is absent again afterwards.
	if res := mustAccess(Request{Op: OpReadRmv, Addr: 2}); !res.Found || res.Data[0] != 0xAB {
		t.Fatal("readrmv did not return the resident block")
	}
	if res := mustAccess(Request{Op: OpRead, Addr: 2}); res.Found {
		t.Fatal("block still present after readrmv")
	}

	// Append materializes with Found=true by definition (the caller is
	// returning a block it owns).
	if res := mustAccess(Request{Op: OpAppend, Addr: 3, Data: []byte{7}}); !res.Found {
		t.Fatal("append reported not-found")
	}
	if res := mustAccess(Request{Op: OpRead, Addr: 3}); !res.Found || res.Data[0] != 7 {
		t.Fatal("appended block not present")
	}

	// A read with Update materializes the block with the updated payload.
	mustAccess(Request{Op: OpRead, Addr: 4, Update: func(old []byte, found bool) []byte {
		if found {
			t.Fatal("fresh block reported found in Update")
		}
		out := make([]byte, len(old))
		out[0] = 9
		return out
	}})
	if res := mustAccess(Request{Op: OpRead, Addr: 4}); !res.Found || res.Data[0] != 9 {
		t.Fatal("update did not materialize the block")
	}
}

// TestProbabilisticReencryption: the same bucket's ciphertext changes on
// every writeback even when contents are identical.
func TestProbabilisticReencryption(t *testing.T) {
	g := newGeom(t, 4, 4, 16)
	p := newORAM(t, g, true)
	if _, err := p.Access(Request{Op: OpWrite, Addr: 1, Leaf: 0, NewLeaf: 0,
		Data: []byte("fixed")}); err != nil {
		t.Fatal(err)
	}
	top := g.NodeIndex(0, p.TreetopLevels()) // the first bucket of the path that leaves trusted memory
	root1 := adversary.Inspect(p.Store(), top)
	if _, err := p.Access(Request{Op: OpRead, Addr: 1, Leaf: 0, NewLeaf: 0}); err != nil {
		t.Fatal(err)
	}
	root2 := adversary.Inspect(p.Store(), top)
	if root1 == nil || bytes.Equal(root1, root2) {
		t.Fatal("bucket ciphertext unchanged across accesses")
	}
}
