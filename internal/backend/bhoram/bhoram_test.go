package bhoram

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"freecursive/internal/backend"
	"freecursive/internal/crypt"
	"freecursive/internal/mem"
	"freecursive/internal/tree"
)

func testGeom(t *testing.T) tree.Geometry {
	t.Helper()
	g, err := tree.NewGeometry(6, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newTestBackend(t *testing.T, encrypted bool) *BucketHash {
	t.Helper()
	g := testGeom(t)
	cfg := Config{Geometry: g, CacheCapacity: 16}
	if encrypted {
		ciph, err := crypt.NewBucketCipher([]byte("0123456789abcdef"), crypt.SeedGlobal)
		if err != nil {
			t.Fatal(err)
		}
		prf, err := crypt.NewPRF([]byte("fedcba9876543210"))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cipher = ciph
		cfg.Hash = prf
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRandomTraceAgainstModel drives random frontend-discipline traffic
// and checks every result against a flat model. The cache capacity is
// small relative to the op count, so the trace crosses many rebuilds
// including major ones.
func TestRandomTraceAgainstModel(t *testing.T) {
	for _, enc := range []bool{false, true} {
		t.Run(fmt.Sprintf("enc=%v", enc), func(t *testing.T) {
			b := newTestBackend(t, enc)
			driveAgainstModel(t, b, 4000, 99)
		})
	}
}

func driveAgainstModel(t *testing.T, b *BucketHash, ops int, seed int64) {
	t.Helper()
	g := b.Geometry()
	rng := rand.New(rand.NewSource(seed))
	model := map[uint64][]byte{} // addr -> payload
	leaf := map[uint64]uint64{}  // addr -> current leaf
	held := map[uint64][]byte{}  // read-removed blocks the "frontend" holds
	nAddrs := uint64(120)

	payload := func(tag uint64) []byte {
		p := make([]byte, g.BlockBytes)
		for i := range p {
			p[i] = byte(tag + uint64(i)*7)
		}
		return p
	}

	for i := 0; i < ops; i++ {
		addr := rng.Uint64() % nAddrs
		newLeaf := rng.Uint64() % g.Leaves()
		cur, known := leaf[addr]
		if !known {
			cur = rng.Uint64() % g.Leaves()
		}
		if _, isHeld := held[addr]; isHeld {
			// Discipline: a read-removed block must be appended back before
			// any other access to it.
			res, err := b.Access(backend.Request{
				Op: backend.OpAppend, Addr: addr, Leaf: newLeaf, Data: held[addr],
			})
			if err != nil {
				t.Fatalf("op %d append: %v", i, err)
			}
			if !res.Found {
				t.Fatalf("op %d: append reported not found", i)
			}
			model[addr] = held[addr]
			leaf[addr] = newLeaf
			delete(held, addr)
			continue
		}
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // read
			res, err := b.Access(backend.Request{
				Op: backend.OpRead, Addr: addr, Leaf: cur, NewLeaf: newLeaf,
			})
			if err != nil {
				t.Fatalf("op %d read: %v", i, err)
			}
			want, exists := model[addr]
			if exists != res.Found {
				t.Fatalf("op %d read addr %d: found=%v want %v", i, addr, res.Found, exists)
			}
			if exists && !bytes.Equal(res.Data, want) {
				t.Fatalf("op %d read addr %d: payload mismatch", i, addr)
			}
			if !exists {
				model[addr] = make([]byte, g.BlockBytes) // zero-initialized
			}
			leaf[addr] = newLeaf
		case 4, 5, 6, 7: // write
			data := payload(uint64(i))
			if _, err := b.Access(backend.Request{
				Op: backend.OpWrite, Addr: addr, Leaf: cur, NewLeaf: newLeaf, Data: data,
			}); err != nil {
				t.Fatalf("op %d write: %v", i, err)
			}
			model[addr] = data
			leaf[addr] = newLeaf
		case 8: // readrmv (only for known blocks, as the PLB would)
			if !known {
				continue
			}
			res, err := b.Access(backend.Request{
				Op: backend.OpReadRmv, Addr: addr, Leaf: cur,
			})
			if err != nil {
				t.Fatalf("op %d readrmv: %v", i, err)
			}
			want, exists := model[addr]
			if exists != res.Found {
				t.Fatalf("op %d readrmv addr %d: found=%v want %v", i, addr, res.Found, exists)
			}
			if exists && !bytes.Equal(res.Data, want) {
				t.Fatalf("op %d readrmv addr %d: payload mismatch", i, addr)
			}
			if exists {
				held[addr] = want
			}
			delete(model, addr)
			delete(leaf, addr)
		case 9: // read-modify-write via Update
			data := payload(uint64(i) | 1<<32)
			res, err := b.Access(backend.Request{
				Op: backend.OpRead, Addr: addr, Leaf: cur, NewLeaf: newLeaf,
				Update: func(old []byte, found bool) []byte {
					if want, exists := model[addr]; exists {
						if !found || !bytes.Equal(old, want) {
							t.Errorf("op %d update addr %d: old payload mismatch", i, addr)
						}
					}
					return data
				},
			})
			if err != nil {
				t.Fatalf("op %d rmw: %v", i, err)
			}
			_ = res
			model[addr] = data
			leaf[addr] = newLeaf
		}
	}

	// Drain maintenance and sweep every live block once more.
	for b.MaintainPending() {
		if _, err := b.Maintain(0); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
	for addr, want := range model {
		cur := leaf[addr]
		newLeaf := rng.Uint64() % g.Leaves()
		res, err := b.Access(backend.Request{Op: backend.OpRead, Addr: addr, Leaf: cur, NewLeaf: newLeaf})
		if err != nil {
			t.Fatalf("sweep read %d: %v", addr, err)
		}
		if !res.Found || !bytes.Equal(res.Data, want) {
			t.Fatalf("sweep read %d: found=%v payload ok=%v", addr, res.Found, bytes.Equal(res.Data, want))
		}
		leaf[addr] = newLeaf
	}
	if b.ctr.Rebuilds == 0 {
		t.Fatal("trace never triggered a rebuild; test is not exercising the hierarchy")
	}
}

// TestSnapshotRestoreRoundTrip captures trusted state mid-workload,
// rebuilds a twin over the same untrusted store, and checks the twin
// serves identical contents.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	g := testGeom(t)
	ciph, _ := crypt.NewBucketCipher([]byte("0123456789abcdef"), crypt.SeedGlobal)
	prf, _ := crypt.NewPRF([]byte("fedcba9876543210"))
	st := mem.NewStore()
	b, err := New(Config{Geometry: g, Store: st, Cipher: ciph, Hash: prf, CacheCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	leaf := map[uint64]uint64{}
	model := map[uint64][]byte{}
	for i := 0; i < 500; i++ {
		addr := rng.Uint64() % 60
		cur, ok := leaf[addr]
		if !ok {
			cur = rng.Uint64() % g.Leaves()
		}
		nl := rng.Uint64() % g.Leaves()
		data := []byte(fmt.Sprintf("blk-%d-%d", addr, i))
		if _, err := b.Access(backend.Request{Op: backend.OpWrite, Addr: addr, Leaf: cur, NewLeaf: nl, Data: data}); err != nil {
			t.Fatal(err)
		}
		full := make([]byte, g.BlockBytes)
		copy(full, data)
		model[addr] = full
		leaf[addr] = nl
	}

	snap, err := b.TrustedState()
	if err != nil {
		t.Fatal(err)
	}
	if b.MaintainPending() {
		t.Fatal("TrustedState left maintenance pending")
	}
	seed := ciph.GlobalSeed()

	ciph2, _ := crypt.NewBucketCipher([]byte("0123456789abcdef"), crypt.SeedGlobal)
	ciph2.SetGlobalSeed(seed)
	prf2, _ := crypt.NewPRF([]byte("fedcba9876543210"))
	twin, err := New(Config{Geometry: g, Store: st, Cipher: ciph2, Hash: prf2, CacheCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	for addr, want := range model {
		nl := rng.Uint64() % g.Leaves()
		res, err := twin.Access(backend.Request{Op: backend.OpRead, Addr: addr, Leaf: leaf[addr], NewLeaf: nl})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || !bytes.Equal(res.Data, want) {
			t.Fatalf("twin read %d: found=%v equal=%v", addr, res.Found, bytes.Equal(res.Data, want))
		}
		leaf[addr] = nl
	}

	// A mismatched capacity must be refused (level sizing would differ).
	bad, _ := New(Config{Geometry: g, Store: st, Cipher: ciph2, Hash: prf2, CacheCapacity: 32})
	if err := bad.RestoreState(snap); err == nil {
		t.Fatal("RestoreState accepted a mismatched cache capacity")
	}
}

// TestAppendDuplicateRejected mirrors the Path ORAM contract: appending
// over a live block is a discipline violation; appending over a tombstone
// (the state readrmv leaves) is the legal re-insertion.
func TestAppendDuplicateRejected(t *testing.T) {
	b := newTestBackend(t, false)
	g := b.Geometry()
	w := func(op backend.Op, addr, lf, nl uint64, data []byte) (backend.Result, error) {
		return b.Access(backend.Request{Op: op, Addr: addr, Leaf: lf, NewLeaf: nl, Data: data})
	}
	if _, err := w(backend.OpWrite, 1, 3, 5, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := w(backend.OpAppend, 1, 4, 0, []byte("y")); err == nil {
		t.Fatal("append over a live cached block succeeded")
	}
	if _, err := w(backend.OpReadRmv, 1, 5, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w(backend.OpAppend, 1, 6, 0, []byte("z")); err != nil {
		t.Fatalf("append after readrmv: %v", err)
	}
	res, err := w(backend.OpRead, 1, 6, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, g.BlockBytes)
	copy(want, "z")
	if !res.Found || !bytes.Equal(res.Data, want) {
		t.Fatal("re-appended block not served back")
	}
}

// TestReadRmvTombstoneSuppressesStaleCopies forces a block's old copy
// into an untrusted level, read-removes it, pushes the tombstone down too,
// and checks the stale copy never resurrects.
func TestReadRmvTombstoneSuppressesStaleCopies(t *testing.T) {
	b := newTestBackend(t, true)
	g := b.Geometry()
	rng := rand.New(rand.NewSource(3))
	churn := func(n int, from uint64) {
		for i := 0; i < n; i++ {
			addr := from + uint64(i)%40
			nl := rng.Uint64() % g.Leaves()
			if _, err := b.Access(backend.Request{Op: backend.OpWrite, Addr: addr, Leaf: nl, NewLeaf: nl, Data: []byte{byte(i)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	const addr, lf = 7, 11
	if _, err := b.Access(backend.Request{Op: backend.OpWrite, Addr: addr, Leaf: lf, NewLeaf: lf, Data: []byte("old")}); err != nil {
		t.Fatal(err)
	}
	churn(100, 1000) // push the old copy into the levels
	res, err := b.Access(backend.Request{Op: backend.OpReadRmv, Addr: addr, Leaf: lf})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("readrmv lost the block")
	}
	churn(300, 2000) // push the tombstone down through rebuilds
	res, err = b.Access(backend.Request{Op: backend.OpRead, Addr: addr, Leaf: lf, NewLeaf: lf})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("stale copy resurrected after readrmv")
	}
}
