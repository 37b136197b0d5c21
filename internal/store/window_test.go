package store

import (
	"bytes"
	"errors"
	"io"
	"math/rand/v2"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freecursive"
	"freecursive/internal/adversary"
	"freecursive/internal/bucketd"
	"freecursive/internal/bucketwire"
	"freecursive/internal/mem"
)

// remoteStore builds a store whose shards keep their trees on a bucketd
// reachable at addr.
func remoteStore(t *testing.T, addr string, shards int) *Store {
	t.Helper()
	cfg := lightCfg(shards, uint64(shards)<<7)
	cfg.MemAddr = addr
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for _, sh := range s.shards {
		if sh.depth != inFlightWindow {
			t.Fatalf("shard over remote memory has window depth %d, want %d", sh.depth, inFlightWindow)
		}
	}
	return s
}

// TestWindowOverlapsRoundTrips: requests queued behind one another on one
// shard do not wait for each other's memory round trip. A full window of
// reads costs about one round trip, not one each; the values are those of
// the serial order; and the shard's overlap counter and in-flight gauge say
// what happened.
func TestWindowOverlapsRoundTrips(t *testing.T) {
	const rtt = 40 * time.Millisecond
	s := remoteStore(t, startBucketd(t, bucketd.Config{RTT: rtt}), 1)
	bb := s.BlockBytes()
	for a := uint64(0); a < inFlightWindow; a++ {
		if _, err := s.Put(a, val(a, bb)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.ShardInfos()[0].OverlappedAccesses

	release := gateShard(t, s.shards[0])
	var ops []Op
	for a := uint64(0); a < inFlightWindow; a++ {
		ops = append(ops, Op{Addr: a})
	}
	futs := s.SubmitBatch(ops)
	start := time.Now()
	release()
	for a, f := range futs {
		got, err := f.Wait()
		if err != nil || !bytes.Equal(got, val(uint64(a), bb)) {
			t.Fatalf("get %d: %x, %v", a, got, err)
		}
	}
	if elapsed := time.Since(start); elapsed > (inFlightWindow-1)*rtt {
		t.Errorf("%d queued reads took %v at %v per round trip: they did not overlap", inFlightWindow, elapsed, rtt)
	}
	info := s.ShardInfos()[0]
	if got := info.OverlappedAccesses - before; got != inFlightWindow-1 {
		t.Errorf("OverlappedAccesses rose by %d, want %d", got, inFlightWindow-1)
	}
	if info.InFlight != 0 {
		t.Errorf("InFlight = %d with the shard idle", info.InFlight)
	}

	// More requests than the window, several on one address: serial values.
	release = gateShard(t, s.shards[0])
	v1, v2 := val(101, bb), val(102, bb)
	futs = s.SubmitBatch([]Op{
		{Write: true, Addr: 1, Data: v1}, {Addr: 1}, {Addr: 2}, {Write: true, Addr: 1, Data: v2},
		{Addr: 1}, {Addr: 1}, {Addr: 3}, {Write: true, Addr: 2, Data: v1}, {Addr: 2},
	})
	release()
	want := [][]byte{nil, v1, val(2, bb), nil, v2, v2, val(3, bb), nil, v1}
	for i, f := range futs {
		got, err := f.Wait()
		if err != nil || !bytes.Equal(got, want[i]) {
			t.Fatalf("op %d: %x, %v; want %x", i, got, err, want[i])
		}
	}
}

// TestWindowCoalescesOntoFlight: a read of an address whose read is still in
// flight waits for that access instead of issuing its own, and a write in
// between splits the sharing, exactly as within a serial window.
func TestWindowCoalescesOntoFlight(t *testing.T) {
	s := remoteStore(t, startBucketd(t, bucketd.Config{RTT: 10 * time.Millisecond}), 1)
	bb := s.BlockBytes()
	v1, v2 := val(1, bb), val(2, bb)
	if _, err := s.Put(5, v1); err != nil {
		t.Fatal(err)
	}
	accesses, coalesced := s.Stats().Accesses, s.ShardInfos()[0].CoalescedReads
	release := gateShard(t, s.shards[0])
	futs := s.SubmitBatch([]Op{{Addr: 5}, {Addr: 5}, {Write: true, Addr: 5, Data: v2}, {Addr: 5}, {Addr: 5}})
	release()
	for i, want := range [][]byte{v1, v1, nil, v2, v2} {
		got, err := futs[i].Wait()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("op %d: %x, %v; want %x", i, got, err, want)
		}
	}
	if got := s.Stats().Accesses - accesses; got != 3 {
		t.Errorf("%d physical accesses, want 3", got)
	}
	if got := s.ShardInfos()[0].CoalescedReads - coalesced; got != 2 {
		t.Errorf("%d coalesced reads, want 2", got)
	}
}

// TestWindowPostedReadYourWrites: a write's future resolves before its path
// read returns, yet a read queued behind it sees it: W(a,v1) R(a) W(a,v2)
// R(a) in one gated batch returns v1, then v2.
func TestWindowPostedReadYourWrites(t *testing.T) {
	s := remoteStore(t, startBucketd(t, bucketd.Config{RTT: 10 * time.Millisecond}), 1)
	bb := s.BlockBytes()
	v0, v1, v2 := val(0, bb), val(1, bb), val(2, bb)
	if _, err := s.Put(5, v0); err != nil {
		t.Fatal(err)
	}
	release := gateShard(t, s.shards[0])
	futs := s.SubmitBatch([]Op{{Write: true, Addr: 5, Data: v1}, {Addr: 5}, {Write: true, Addr: 5, Data: v2}, {Addr: 5}})
	release()
	for i, want := range [][]byte{nil, v1, nil, v2} {
		got, err := futs[i].Wait()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("op %d: %x, %v; want %x", i, got, err, want)
		}
	}
}

// TestWindowPutIsPosted: a put into an empty window returns once it is
// ordered, in well under the round trip its path read takes; a get still
// pays that round trip.
func TestWindowPutIsPosted(t *testing.T) {
	const rtt = 100 * time.Millisecond
	s := remoteStore(t, startBucketd(t, bucketd.Config{RTT: rtt}), 1)
	bb := s.BlockBytes()
	s.Stats() // a drain barrier: the window is empty
	start := time.Now()
	if _, err := s.Put(3, val(3, bb)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= rtt/2 {
		t.Errorf("a put took %v at %v per round trip: it waited for its path read", d, rtt)
	}
	start = time.Now()
	if got, err := s.Get(3); err != nil || !bytes.Equal(got, val(3, bb)) {
		t.Fatalf("get behind the put: %x, %v", got, err)
	}
	if d := time.Since(start); d < rtt {
		t.Errorf("a get took %v at %v per round trip", d, rtt)
	}
}

// TestWindowPostedTraceUnchanged: posting a write changes when the caller
// hears back, not what memory sees. A fixed seeded stream driven one op at
// a time puts the same path indices on the wire, readpaths and writepaths
// each in the same order, and moves the same bytes, whether or not a drain
// barrier after each put makes the next op wait for the put's access.
func TestWindowPostedTraceUnchanged(t *testing.T) {
	type wire struct{ reads, writes []uint64 }
	run := func(barrier bool) (w wire, moved, overlapped uint64) {
		var mu sync.Mutex
		addr := startBucketd(t, bucketd.Config{RTT: 2 * time.Millisecond, Trace: func(op byte, _, idx uint64) {
			mu.Lock()
			defer mu.Unlock()
			switch op {
			case bucketwire.OpReadPath:
				w.reads = append(w.reads, idx)
			case bucketwire.OpWritePath:
				w.writes = append(w.writes, idx)
			}
		}})
		s := remoteStore(t, addr, 1)
		bb := s.BlockBytes()
		rng := rand.New(rand.NewPCG(5, 11))
		shadow := map[uint64][]byte{}
		for i := 0; i < 300; i++ {
			a := rng.Uint64() % s.Blocks()
			if rng.IntN(2) == 0 {
				v := val(uint64(i)<<16|a, bb)
				if _, err := s.Put(a, v); err != nil {
					t.Fatal(err)
				}
				shadow[a] = v
				if barrier {
					s.Stats()
				}
				continue
			}
			want, ok := shadow[a]
			if !ok {
				want = make([]byte, bb)
			}
			if got, err := s.Get(a); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("op %d: Get(%d) = %x, %v; want %x", i, a, got, err, want)
			}
		}
		moved, overlapped = s.Stats().BytesMoved, s.ShardInfos()[0].OverlappedAccesses
		if err := s.Close(); err != nil { // the last write-backs reach the tap
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		return w, moved, overlapped
	}
	posted, postedMoved, overlapped := run(false)
	waited, waitedMoved, _ := run(true)
	if len(posted.reads) == 0 {
		t.Fatal("the stream reached bucketd untapped")
	}
	if overlapped == 0 {
		t.Fatal("no op started while a posted write was in flight")
	}
	if !slices.Equal(posted.reads, waited.reads) {
		t.Errorf("readpath indices differ: %d touches posted, %d with a barrier after each put", len(posted.reads), len(waited.reads))
	}
	if !slices.Equal(posted.writes, waited.writes) {
		t.Errorf("writepath indices differ: %d touches posted, %d with a barrier after each put", len(posted.writes), len(waited.writes))
	}
	if postedMoved != waitedMoved {
		t.Errorf("BytesMoved %d posted, %d with a barrier after each put", postedMoved, waitedMoved)
	}
}

// cutProxy forwards TCP connections to a bucketd and can cut or mute them
// one by one: a connection lost in the network, or a server gone silent with
// the connection still open — not a server that went away.
type cutProxy struct {
	ln     net.Listener
	target string
	mu     sync.Mutex
	pairs  [][2]net.Conn  // accepted connection and its upstream, in accept order
	muted  []*atomic.Bool // per pair: drop what the server sends
	wg     sync.WaitGroup
}

// mutable is the client side of a proxied connection: once muted, what the
// server sends is swallowed.
type mutable struct {
	net.Conn
	muted *atomic.Bool
}

func (m mutable) Write(b []byte) (int, error) {
	if m.muted.Load() {
		return len(b), nil
	}
	return m.Conn.Write(b)
}

func startCutProxy(t *testing.T, target string) *cutProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &cutProxy{ln: ln, target: target}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				down.Close()
				continue
			}
			muted := new(atomic.Bool)
			p.mu.Lock()
			p.pairs = append(p.pairs, [2]net.Conn{down, up})
			p.muted = append(p.muted, muted)
			p.mu.Unlock()
			p.wg.Add(2)
			go func() { defer p.wg.Done(); io.Copy(up, down); up.Close() }()
			go func() { defer p.wg.Done(); io.Copy(mutable{down, muted}, up); down.Close() }()
		}
	}()
	return p
}

// cut drops the i-th accepted connection, both directions.
func (p *cutProxy) cut(i int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pairs[i][0].Close()
	p.pairs[i][1].Close()
}

// mute makes the i-th accepted connection's server fall silent: requests
// still reach it, nothing comes back, the connection stays open.
func (p *cutProxy) mute(i int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.muted[i].Store(true)
}

// close stops the proxy and waits for its goroutines.
func (p *cutProxy) close() {
	p.ln.Close()
	p.mu.Lock()
	for _, pair := range p.pairs {
		pair[0].Close()
		pair[1].Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// settleGoroutines waits for the goroutine count to fall back to baseline.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlive Close (baseline %d):\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// faultRig is the frame every fault test below shares: a two-shard store
// over a bucketd, reached through a cutProxy, with a round trip long enough
// that a gated pile of accesses on shard 0 is fully in flight when a fault
// strikes. Set-up writes inFlightWindow addresses of shard 0 (mine) and
// one of shard 1 (other) and waits until bucketd has served their frames.
type faultRig struct {
	t           *testing.T
	s           *Store
	srv         *bucketd.Server
	bucketdAddr string // the server's own address, bypassing the proxy
	served      chan struct{}
	proxy       *cutProxy
	mine, other []uint64
	baseline    int
}

func newFaultRig(t *testing.T, cfg bucketd.Config) *faultRig {
	r := &faultRig{t: t, baseline: runtime.NumGoroutine(), served: make(chan struct{})}
	if cfg.RTT == 0 {
		cfg.RTT = 30 * time.Millisecond
	}
	r.srv = bucketd.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r.bucketdAddr = ln.Addr().String()
	go func() { r.srv.Serve(ln); close(r.served) }()
	r.proxy = startCutProxy(t, r.bucketdAddr)
	r.s = remoteStore(t, r.proxy.ln.Addr().String(), 2)
	r.mine, r.other = shardAddrs(r.s, 0, inFlightWindow), shardAddrs(r.s, 1, 1)
	r.put(append(r.mine, r.other...))
	return r
}

// put writes val(a) to every address and returns once bucketd has served
// every frame of them (two per put). A put returns once it is ordered — its
// path read and write-back still travelling — and shard 1's travel on a
// connection of its own, so a drain barrier (Stats, a control op) finishes
// the accesses and only the frame count then says their write-backs have
// landed; without both, FailEvery could count a set-up frame after the
// pile's first accesses and a tamperer could race a write-back.
func (r *faultRig) put(addrs []uint64) {
	r.t.Helper()
	want := r.srv.FramesServed() + uint64(2*len(addrs))
	for _, a := range addrs {
		if _, err := r.s.Put(a, val(a, r.s.BlockBytes())); err != nil {
			r.t.Fatal(err)
		}
	}
	r.s.Stats() // a control op: every shard's window drains
	for r.srv.FramesServed() < want {
		time.Sleep(time.Millisecond)
	}
}

// failStopped checks the aftermath of a fault on shard 0: the shard is
// quarantined and fails fast, shard 1 keeps serving, nothing is left in
// flight, Close returns and no goroutine outlives it.
func (r *faultRig) failStopped() {
	t, s := r.t, r.s
	t.Helper()
	if got := s.ShardState(0); got != StateQuarantined {
		t.Fatalf("shard 0 is %v after the fault", got)
	}
	start := time.Now()
	if _, err := s.Get(r.mine[0]); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("later op on the faulted shard: %v, want ErrQuarantined", err)
	}
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Errorf("later op on the faulted shard took %v: it did not fail fast", d)
	}
	if got, err := s.Get(r.other[0]); err != nil || !bytes.Equal(got, val(r.other[0], s.BlockBytes())) {
		t.Fatalf("the other shard stopped serving: %x, %v", got, err)
	}
	if info := s.ShardInfos()[0]; info.InFlight != 0 {
		t.Errorf("InFlight = %d on the faulted shard", info.InFlight)
	}

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		// The fault was reported where it struck. Close has nothing to add:
		// in particular no read is left unanswered behind the accesses the
		// controller gave up.
		if err != nil {
			t.Errorf("Store.Close after the fault: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Store.Close hangs after the fault")
	}
	r.proxy.close()
	r.srv.Close()
	<-r.served
	settleGoroutines(t, r.baseline)
}

// windowFault runs a gated pile of reads of shard 0 (a full window of them,
// or fewer) and strikes with inject once the whole pile is on the wire.
// Every future of the pile must resolve — with values up to the fault and
// typed errors from it on — promptly, never after a hang; then the rig must
// have fail-stopped (faultRig.failStopped).
//
// wantOK is how many accesses of the pile complete before the fault, or -1
// when that depends on what the tree happened to hold.
func windowFault(t *testing.T, cfg bucketd.Config, pile int,
	prepare func(r *faultRig), inject func(proxy *cutProxy), wantOK int, wantErr error) {
	r := newFaultRig(t, cfg)
	s, bb, mine := r.s, r.s.BlockBytes(), r.mine
	if prepare != nil {
		prepare(r)
	}

	release := gateShard(t, s.shards[0])
	futs := s.SubmitBatch(reads(mine[:pile]))
	release()
	for s.ShardInfos()[0].InFlight < len(futs) && s.ShardState(0) == StateHealthy {
		time.Sleep(time.Millisecond) // until the whole pile is on the wire
	}
	if inject != nil {
		inject(r.proxy)
	}
	resolved := make(chan struct{})
	go func() {
		defer close(resolved)
		failed := -1 // index of the first access that failed
		for i, f := range futs {
			got, err := f.Wait()
			switch {
			case err == nil && failed < 0:
				if !bytes.Equal(got, val(mine[i], bb)) {
					t.Errorf("access %d, ahead of the fault: %x", i, got)
				}
			case !errors.Is(err, ErrQuarantined) || !errors.Is(err, wantErr):
				t.Errorf("access %d (first failure at %d): %v, want ErrQuarantined wrapping %v", i, failed, err, wantErr)
			case failed < 0:
				failed = i
			}
		}
		if failed < 0 || (wantOK >= 0 && failed != wantOK) {
			t.Errorf("first failed access is %d, want %d (-1: any)", failed, wantOK)
		}
	}()
	select {
	case <-resolved:
	case <-time.After(5 * time.Second):
		t.Fatal("futures of the accesses in flight never resolved")
	}
	r.failStopped()
}

// TestWindowFaultConnectionCut: the connection drops with a full window of
// reads in flight (on the wire: after R_A … R_D, before W_A).
func TestWindowFaultConnectionCut(t *testing.T) {
	windowFault(t, bucketd.Config{}, inFlightWindow, nil,
		func(p *cutProxy) { p.cut(0) }, 0, freecursive.ErrStorage)
}

// TestWindowFaultSilentServer: bucketd stops answering shard 0 with the
// connection still open, while the shard has reads in flight, room left in
// its window and no further request coming. Nothing arrives to wake the
// owner, so the memory's own deadline must: the futures resolve with the
// fault once OpTimeout has passed, not when Close finally drains the window.
func TestWindowFaultSilentServer(t *testing.T) {
	defer func(d time.Duration) { mem.DefaultOpTimeout = d }(mem.DefaultOpTimeout)
	mem.DefaultOpTimeout = 300 * time.Millisecond
	for _, pile := range []int{1, inFlightWindow - 1, inFlightWindow} {
		windowFault(t, bucketd.Config{}, pile, nil,
			func(p *cutProxy) { p.mute(0) }, 0, freecursive.ErrStorage)
	}
}

// setupFrames is how many data frames the rig's set-up puts cost: two each
// (readpath, writepath), inFlightWindow on shard 0 and one on shard 1.
// FailEvery counts every data frame, so the first frame after set-up is
// number setupFrames+1.
const setupFrames = 2 * (inFlightWindow + 1)

// TestWindowFaultServerError: bucketd answers status 500 to the second read
// of the window. The first access completes; the second fails with the
// fault; the ones begun behind it planned around a write-back that will not
// happen and fail with it.
func TestWindowFaultServerError(t *testing.T) {
	// The pile's reads are the next frames after set-up, so its second read
	// is frame setupFrames + 2.
	windowFault(t, bucketd.Config{FailEvery: setupFrames + 2}, inFlightWindow, nil,
		nil, 1, freecursive.ErrStorage)
}

// garbleShard0 has an adversary garble shard 0's whole tree through a
// connection of its own. It first flushes the shard's stash with more
// puts — blocks still on chip are out of the adversary's reach — and
// faultRig.put returns only once those puts have finished their accesses
// (a drain barrier) and bucketd has served their write-backs: a returned
// Put alone does not mean its access is over, and a garble racing a
// write-back would be overwritten by it.
func garbleShard0(r *faultRig) {
	r.put(shardAddrs(r.s, 0, 80)[inFlightWindow:])
	adv, err := mem.DialRemote(mem.RemoteConfig{Addr: r.bucketdAddr, Namespace: "store/shard-0000/tree-0"})
	if err != nil {
		r.t.Fatal(err)
	}
	defer adv.Close()
	if (adversary.Garbler{}).GarbleAll(adv, 1<<8) == 0 {
		r.t.Fatal("nothing of shard 0 found on the bucketd to tamper with")
	}
}

// TestWindowFaultIntegrity: PMMAC rejects what the first access of the
// window fetched while the others are in flight; they fail with the latched
// violation instead of trusting memory further.
func TestWindowFaultIntegrity(t *testing.T) {
	// A short round trip: the adversary pays it per bucket.
	windowFault(t, bucketd.Config{RTT: time.Millisecond}, inFlightWindow, garbleShard0,
		nil, -1, freecursive.ErrIntegrity)
}

// postedFault drives shard 0 one put and one get at a time — a put of a new
// value, then a get of the same address — until a fault strikes a posted
// write, one whose Put has already returned nil. Losing it must quarantine
// the shard: the get fails with ErrQuarantined wrapping wantErr and never
// returns the value the write replaced. With settle, a drain barrier
// (Stats, a control op) between the two finishes the write first, and the
// shard must be quarantined before the get is sent; without it the get is
// started behind the write still in flight. Then the rig must have
// fail-stopped (faultRig.failStopped).
func postedFault(t *testing.T, cfg bucketd.Config, settle bool, prepare func(r *faultRig), wantErr error) {
	r := newFaultRig(t, cfg)
	s, bb := r.s, r.s.BlockBytes()
	if prepare != nil {
		prepare(r)
	}
	for _, a := range shardAddrs(s, 0, 80) {
		v := val(a+1000, bb)
		if got, err := s.Put(a, v); err != nil || got != nil {
			t.Fatalf("Put(%d) = %x, %v; want nil data, no error", a, got, err)
		}
		quarantined := false
		if settle {
			s.Stats()
			quarantined = s.ShardState(0) == StateQuarantined
		}
		got, err := s.Get(a)
		if err == nil {
			if quarantined || !bytes.Equal(got, v) {
				t.Fatalf("Get(%d) after its Put = %x (shard quarantined: %v), want %x", a, got, quarantined, v)
			}
			continue
		}
		if !errors.Is(err, ErrQuarantined) || !errors.Is(err, wantErr) {
			t.Fatalf("Get(%d) behind a lost posted write: %v, want ErrQuarantined wrapping %v", a, err, wantErr)
		}
		if settle && !quarantined {
			t.Fatalf("Get(%d) failed (%v) after its write finished with the shard healthy", a, err)
		}
		r.failStopped()
		return
	}
	t.Fatal("no posted write was lost")
}

// TestWindowFaultPostedServerError: bucketd answers status 500 to a posted
// write's path read, the first frame after set-up.
func TestWindowFaultPostedServerError(t *testing.T) {
	for _, settle := range []bool{false, true} {
		postedFault(t, bucketd.Config{FailEvery: setupFrames + 1}, settle, nil, freecursive.ErrStorage)
	}
}

// TestWindowFaultPostedIntegrity: PMMAC rejects a posted write's path — the
// block it overwrites was garbled below the treetop.
func TestWindowFaultPostedIntegrity(t *testing.T) {
	for _, settle := range []bool{false, true} {
		postedFault(t, bucketd.Config{RTT: time.Millisecond}, settle, garbleShard0, freecursive.ErrIntegrity)
	}
}
