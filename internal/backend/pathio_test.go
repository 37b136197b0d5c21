package backend

import (
	"errors"
	"math/rand/v2"
	"net"
	"sync"
	"testing"

	"freecursive/internal/bucketd"
	"freecursive/internal/bucketwire"
	"freecursive/internal/crypt"
	"freecursive/internal/mem"
)

// newORAMOn builds a PathORAM over an explicit store with a fixed cipher
// key, so two instances with the same key and request stream are
// bit-identical.
func newORAMOn(t testing.TB, st mem.Backend, encrypted bool) *PathORAM {
	t.Helper()
	cfg := Config{Geometry: newGeom(t, 8, 4, 16), Store: st}
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

// TestRemoteAccessIsTwoFrames pins, as a count rather than a timing, the
// cost invariant batched path I/O exists for: over mem.Remote every
// steady-state access is exactly two bucketd frames — one readpath, one
// pipelined writepath — and the server sees the accessed path's bucket
// indices root to leaf, in wire order, once per frame.
func TestRemoteAccessIsTwoFrames(t *testing.T) {
	type touch struct {
		op  byte
		idx uint64
	}
	var (
		mu   sync.Mutex
		wire []touch
	)
	srv := bucketd.New(bucketd.Config{Trace: func(op byte, _, idx uint64) {
		mu.Lock()
		wire = append(wire, touch{op, idx})
		mu.Unlock()
	}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	rem, err := mem.DialRemote(mem.RemoteConfig{Addr: ln.Addr().String(), Namespace: "backend/frames"})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	p := newORAMOn(t, rem, true)
	g := p.Geometry()

	rng := rand.New(rand.NewPCG(17, 19))
	leaf := map[uint64]uint64{}
	access := func() uint64 {
		addr := rng.Uint64() % 32
		cur, ok := leaf[addr]
		if !ok {
			cur = rng.Uint64() % g.Leaves()
		}
		leaf[addr] = rng.Uint64() % g.Leaves()
		if _, err := p.Access(Request{Op: OpRead, Addr: addr, Leaf: cur, NewLeaf: leaf[addr]}); err != nil {
			t.Fatal(err)
		}
		return cur
	}
	// settle waits for every pipelined write-back to be applied without
	// sending a frame of its own: Bounce drains the pending acks.
	settle := func() {
		if err := rem.Bounce(); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < 20; i++ { // warm-up: materialize buckets, grow scratch
		access()
	}
	settle()
	frames0 := srv.FramesServed()
	mu.Lock()
	wire = wire[:0]
	mu.Unlock()

	const n = 64
	var want []touch
	for i := 0; i < n; i++ {
		path := g.PathIndices(access(), nil)
		for _, op := range []byte{bucketwire.OpReadPath, bucketwire.OpWritePath} {
			for _, idx := range path {
				want = append(want, touch{op, idx})
			}
		}
	}
	settle()

	if got := srv.FramesServed() - frames0; got != 2*n {
		t.Errorf("%d accesses cost %d bucketd frames, want exactly %d", n, got, 2*n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(wire) != len(want) {
		t.Fatalf("bucketd saw %d bucket touches, want %d", len(wire), len(want))
	}
	for i := range want {
		if wire[i] != want[i] {
			t.Fatalf("bucket touch %d on the wire is %+v, want %+v", i, wire[i], want[i])
		}
	}
}

// TestAccessPropagatesPathReadFault pins fail-stop on I/O faults: a failed
// path read surfaces as an error wrapping mem.ErrIO, the access has no
// partial effect observable through later accesses, and the backend keeps
// working once the fault clears — errors are I/O faults, not tampering, so
// nothing latches at this layer.
func TestAccessPropagatesPathReadFault(t *testing.T) {
	flaky := mem.WithFaults(mem.NewStore(), flakyTestSchedule())
	p := newORAMOn(t, flaky, true)

	// Drive accesses until the schedule injects; every failure must
	// surface as an error wrapping mem.ErrIO rather than absorb
	// garbage or wedge.
	var faults int
	for i := 0; i < 40; i++ {
		_, err := p.Access(Request{Op: OpRead, Addr: 1, Leaf: 1, NewLeaf: 1})
		if err != nil {
			if !errors.Is(err, mem.ErrIO) {
				t.Fatalf("fault is %v, want mem.ErrIO", err)
			}
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("injection schedule never fired")
	}
}

// flakyTestSchedule injects a mid-path partial failure every 10th store
// operation: frequent enough to hit both the read and write phases.
func flakyTestSchedule() mem.FlakyConfig {
	return mem.FlakyConfig{FailEvery: 10, PartialPath: 3}
}

// TestBatchedSurvivesFaultThenRecovers pins that after a failed access the
// backend still serves correct data for blocks whose state was not part of
// the failed operation — the caller decides whether to fail-stop; the
// backend itself must not corrupt the stash on a clean read-phase error.
func TestBatchedSurvivesFaultThenRecovers(t *testing.T) {
	flaky := mem.WithFaults(mem.NewStore(), mem.FlakyConfig{FailEvery: 7})
	p := newORAMOn(t, flaky, true)
	g := p.Geometry()

	data := make([]byte, g.BlockBytes)
	data[0] = 0x5C
	var stored bool
	var errs, oks int
	for i := 0; i < 60; i++ {
		if !stored {
			if _, err := p.Access(Request{Op: OpWrite, Addr: 7, Leaf: 2, NewLeaf: 2, Data: data}); err == nil {
				stored = true
			} else {
				errs++
			}
			continue
		}
		res, err := p.Access(Request{Op: OpRead, Addr: 7, Leaf: 2, NewLeaf: 2})
		if err != nil {
			errs++
			continue
		}
		oks++
		if !res.Found || res.Data[0] != 0x5C {
			t.Fatalf("step %d: block corrupted after earlier faults: %+v", i, res)
		}
	}
	if errs == 0 || oks == 0 {
		t.Fatalf("degenerate run: %d errors, %d successes", errs, oks)
	}
}
