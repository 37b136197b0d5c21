package backend

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"testing"

	"freecursive/internal/bucketd"
	"freecursive/internal/bucketwire"
	"freecursive/internal/crypt"
	"freecursive/internal/mem"
	"freecursive/internal/mem/memtest"
)

// newORAMOn builds a PathORAM over an explicit store with a fixed cipher
// key, so two instances with the same key and request stream are
// bit-identical.
func newORAMOn(t testing.TB, st mem.Backend, encrypted bool) *PathORAM {
	return newORAMOnTop(t, st, encrypted, testTreetop)
}

// newORAMOnTop is newORAMOn with the top k levels cached.
func newORAMOnTop(t testing.TB, st mem.Backend, encrypted bool, k int) *PathORAM {
	t.Helper()
	g := newGeom(t, 8, 4, 16)
	cfg := Config{Geometry: g, Store: st, TreetopBytes: TreetopBytesFor(g, k)}
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
// indices, from the first level under the treetop to the leaf, in wire order,
// once per frame. It holds at every occupancy of the in-flight window: the
// window is held at depth accesses (depth 1 is plain Access), and the wire
// shows the same 2N frames, reordered only by the schedule — reads in the
// order the accesses began, each access's writepath after its own readpath,
// where its Complete fell among the Begins, and so before the read of any
// access begun after it completed. A treetop of k levels shortens every
// frame to L+1-k indices and changes nothing else.
func TestRemoteAccessIsTwoFrames(t *testing.T) {
	for depth := 1; depth <= maxWindow; depth++ {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			for _, k := range []int{0, testTreetop, 8} {
				t.Run(fmt.Sprintf("treetop=%d", k), func(t *testing.T) { remoteAccessIsTwoFrames(t, depth, k) })
			}
		})
	}
}

func remoteAccessIsTwoFrames(t *testing.T, depth, k int) {
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
	p := newORAMOnTop(t, rem, true, k)
	g := p.Geometry()

	// want is the wire the schedule implies, built as the schedule runs:
	// the path under the treetop in readpath touches per Begin, in
	// writepath touches per Complete.
	var want []touch
	note := func(op byte, leaf uint64) {
		for _, idx := range g.PathIndices(leaf, nil)[k:] {
			want = append(want, touch{op, idx})
		}
	}
	rng := rand.New(rand.NewPCG(17, 19))
	leaf := map[uint64]uint64{}
	var flying []uint64 // leaves of the accesses in flight, oldest first
	begin := func() {
		addr := rng.Uint64() % 32
		cur, ok := leaf[addr]
		if !ok {
			cur = rng.Uint64() % g.Leaves()
		}
		leaf[addr] = rng.Uint64() % g.Leaves()
		if err := p.Begin(Request{Op: OpRead, Addr: addr, Leaf: cur, NewLeaf: leaf[addr]}); err != nil {
			t.Fatal(err)
		}
		note(bucketwire.OpReadPath, cur)
		flying = append(flying, cur)
	}
	complete := func() {
		if _, err := p.Complete(); err != nil {
			t.Fatal(err)
		}
		note(bucketwire.OpWritePath, flying[0])
		flying = flying[1:]
	}
	run := func(n int) {
		for i := 0; i < n; i++ {
			if len(flying) == depth {
				complete()
			}
			begin()
		}
		for len(flying) > 0 {
			complete()
		}
		// Wait for every pipelined write-back to be applied without
		// sending a frame of our own: Bounce drains the pending acks.
		if err := rem.Bounce(); err != nil {
			t.Fatal(err)
		}
	}

	run(20) // warm-up: materialize buckets, grow scratch
	frames0 := srv.FramesServed()
	mu.Lock()
	wire = wire[:0]
	mu.Unlock()
	want = want[:0]

	const n = 64
	run(n)

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

// TestCountersChargeBucketsMoved: the bytes an access is charged are the
// buckets it actually moved — the memory's own read and write counts — at
// the wire size of a bucket, whatever the treetop keeps back; over the map
// store and over mem.Remote to a bucketd.
func TestCountersChargeBucketsMoved(t *testing.T) {
	srv := bucketd.New(bucketd.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	for _, k := range []int{0, testTreetop, 8} {
		rem, err := mem.DialRemote(mem.RemoteConfig{Addr: ln.Addr().String(), Namespace: fmt.Sprintf("backend/bytes-%d", k)})
		if err != nil {
			t.Fatal(err)
		}
		defer rem.Close()
		for name, st := range map[string]mem.Backend{"map": mem.NewStore(), "remote": rem} {
			p := newORAMOnTop(t, st, true, k)
			g := p.Geometry()
			rng := rand.New(rand.NewPCG(31, 37))
			const n = 200
			for i := 0; i < n; i++ {
				leaf := rng.Uint64() % g.Leaves()
				if _, err := p.Access(Request{Op: OpWrite, Addr: uint64(i), Leaf: leaf, NewLeaf: leaf, PosMap: i%4 == 0}); err != nil {
					t.Fatal(err)
				}
			}
			ms := st.Stats()
			if want := uint64(n * (g.L + 1 - k)); ms.Reads != want || ms.Writes != want {
				t.Errorf("%s, treetop %d: memory served %d reads and %d writes, want %d of each", name, k, ms.Reads, ms.Writes, want)
			}
			if got, want := p.Counters().TotalBytes(), (ms.Reads+ms.Writes)*WireBucketBytes(g); got != want {
				t.Errorf("%s, treetop %d: counters charge %d bytes, memory moved %d", name, k, got, want)
			}
		}
	}
}

// TestAccessPropagatesPathReadFault pins fail-stop on I/O faults: a failed
// path read — cut off mid-path, a prefix of buckets already served —
// surfaces as an error wrapping mem.ErrIO with nothing absorbed, and every
// access after it is refused with the same fault, none reaching memory.
func TestAccessPropagatesPathReadFault(t *testing.T) {
	flaky := memtest.Wrap(mem.NewStore())
	flaky.Schedule = flakyTestSchedule()
	p := newORAMOn(t, flaky, true)

	var faults int
	var opsAtFault uint64
	for i := 0; i < 40; i++ {
		_, err := p.Access(Request{Op: OpRead, Addr: 1, Leaf: 1, NewLeaf: 1})
		if faults > 0 && err == nil {
			t.Fatalf("access %d succeeded after a storage fault", i)
		}
		if err != nil {
			if !errors.Is(err, mem.ErrIO) {
				t.Fatalf("fault is %v, want mem.ErrIO", err)
			}
			if faults++; faults == 1 {
				opsAtFault = flaky.Ops
			}
		}
	}
	if faults == 0 {
		t.Fatal("injection schedule never fired")
	}
	if flaky.Ops != opsAtFault {
		t.Fatalf("%d memory operations after the fault", flaky.Ops-opsAtFault)
	}
	if p.Stash().Len() != 0 {
		t.Fatalf("stash holds %d blocks of a path read that failed", p.Stash().Len())
	}
}

// flakyTestSchedule injects a mid-path partial failure every 10th store
// operation: frequent enough to hit both the read and write phases.
func flakyTestSchedule() memtest.Schedule {
	return memtest.Schedule{FailEvery: 10, PartialPath: 3}
}

// TestWindowFaultOrphansYoungerAccesses: when an access of the window fails,
// the accesses begun behind it fail with it — they skipped the buckets it
// was to rewrite, so running them would lose what those buckets hold — but
// their reads are still consumed, the memory's stream stays in step, the
// window empties, and the fault stops the backend: nothing more is begun.
func TestWindowFaultOrphansYoungerAccesses(t *testing.T) {
	// Each access is two data frames (readpath, writepath). 40 warm-up
	// accesses, then a window of three: its second read is frame 82.
	const warm = 40
	srv := bucketd.New(bucketd.Config{FailEvery: 2*warm + 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	rem, err := mem.DialRemote(mem.RemoteConfig{Addr: ln.Addr().String(), Namespace: "backend/orphans"})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	p := newORAMOn(t, rem, true)
	g := p.Geometry()
	data := func(a uint64) []byte { return bytes.Repeat([]byte{byte(a) + 1}, g.BlockBytes) }
	leafOf := func(a uint64) uint64 { return a * 37 % g.Leaves() }
	for a := uint64(0); a < warm; a++ {
		if _, err := p.Access(Request{Op: OpWrite, Addr: a, Leaf: leafOf(a), NewLeaf: leafOf(a), Data: data(a)}); err != nil {
			t.Fatal(err)
		}
	}
	for a := uint64(0); a < 3; a++ {
		if err := p.Begin(Request{Op: OpRead, Addr: a, Leaf: leafOf(a), NewLeaf: leafOf(a)}); err != nil {
			t.Fatal(err)
		}
	}
	if res, err := p.Complete(); err != nil || !bytes.Equal(res.Data, data(0)) {
		t.Fatalf("access ahead of the fault: %v", err)
	}
	if _, err := p.Complete(); !errors.Is(err, mem.ErrIO) {
		t.Fatalf("access whose read the server refused: %v, want mem.ErrIO", err)
	}
	if _, err := p.Complete(); !errors.Is(err, mem.ErrIO) || !strings.Contains(err.Error(), "abandoned") {
		t.Fatalf("access begun behind the failed one: %v, want it abandoned with the same fault", err)
	}
	if p.InFlight() != 0 {
		t.Fatalf("%d accesses left in the window", p.InFlight())
	}
	if err := p.Begin(Request{Op: OpRead, Addr: 3, Leaf: leafOf(3), NewLeaf: leafOf(3)}); !errors.Is(err, mem.ErrIO) {
		t.Fatalf("Begin after the faulted window: %v, want it refused with the fault", err)
	}
}
