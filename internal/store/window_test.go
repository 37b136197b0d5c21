package store

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freecursive"
	"freecursive/internal/adversary"
	"freecursive/internal/bucketd"
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
	want := [][]byte{val(1, bb), v1, val(2, bb), v1, v2, v2, val(3, bb), val(2, bb), v1}
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
	for i, want := range [][]byte{v1, v1, v1, v2, v2} {
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

// windowFault is the frame every fault test below shares: a two-shard store
// over a bucketd with a round trip long enough that a gated pile of reads
// on shard 0 (a full window of them, or fewer) is fully in flight when
// inject strikes. Every future of the
// pile must resolve — with values up to the fault and typed errors from it
// on — promptly, never after a hang; the shard must then fail fast, shard 1
// must keep serving, Close must return and no goroutine may outlive it.
//
// wantOK is how many accesses of the pile complete before the fault, or -1
// when that depends on what the tree happened to hold.
func windowFault(t *testing.T, cfg bucketd.Config, pile int,
	prepare func(s *Store, bucketdAddr string), inject func(proxy *cutProxy), wantOK int, wantErr error) {
	baseline := runtime.NumGoroutine()
	if cfg.RTT == 0 {
		cfg.RTT = 30 * time.Millisecond
	}
	srv := bucketd.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { srv.Serve(ln); close(served) }()
	proxy := startCutProxy(t, ln.Addr().String())
	s := remoteStore(t, proxy.ln.Addr().String(), 2)
	bb := s.BlockBytes()
	mine, other := shardAddrs(s, 0, inFlightWindow), shardAddrs(s, 1, 1)
	for _, a := range append(mine, other...) {
		if _, err := s.Put(a, val(a, bb)); err != nil {
			t.Fatal(err)
		}
	}
	// A put returns with its write-back sent, not applied, and shard 1's
	// travels on a connection of its own: wait until bucketd has counted
	// every set-up frame (two per put), or FailEvery could count that
	// write-back after the pile's first reads.
	for srv.FramesServed() < uint64(2*(len(mine)+len(other))) {
		time.Sleep(time.Millisecond)
	}
	if prepare != nil {
		prepare(s, ln.Addr().String())
	}

	release := gateShard(t, s.shards[0])
	futs := s.SubmitBatch(reads(mine[:pile]))
	release()
	for s.ShardInfos()[0].InFlight < len(futs) && s.ShardState(0) == StateHealthy {
		time.Sleep(time.Millisecond) // until the whole pile is on the wire
	}
	if inject != nil {
		inject(proxy)
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

	if got := s.ShardState(0); got != StateQuarantined {
		t.Fatalf("shard 0 is %v after the fault", got)
	}
	start := time.Now()
	if _, err := s.Get(mine[0]); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("later op on the faulted shard: %v, want ErrQuarantined", err)
	}
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Errorf("later op on the faulted shard took %v: it did not fail fast", d)
	}
	if got, err := s.Get(other[0]); err != nil || !bytes.Equal(got, val(other[0], bb)) {
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
	proxy.close()
	srv.Close()
	<-served
	settleGoroutines(t, baseline)
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

// TestWindowFaultServerError: bucketd answers status 500 to the second read
// of the window. The first access completes; the second fails with the
// fault; the ones begun behind it planned around a write-back that will not
// happen and fail with it.
func TestWindowFaultServerError(t *testing.T) {
	// Every data frame counts toward FailEvery. Set-up puts cost two each
	// (readpath, writepath): inFlightWindow on shard 0 and one on shard 1.
	// The pile's reads are the next frames, so its second read is frame
	// 2·(inFlightWindow+1) + 2.
	windowFault(t, bucketd.Config{FailEvery: 2*(inFlightWindow+1) + 2}, inFlightWindow, nil,
		nil, 1, freecursive.ErrStorage)
}

// TestWindowFaultIntegrity: PMMAC rejects what the first access of the
// window fetched while the others are in flight; they fail with the latched
// violation instead of trusting memory further.
func TestWindowFaultIntegrity(t *testing.T) {
	// A short round trip: the adversary below pays it per bucket.
	windowFault(t, bucketd.Config{RTT: time.Millisecond}, inFlightWindow, func(s *Store, addr string) {
		// The adversary garbles shard 0's whole tree through a connection
		// of its own. Flush the shard's stash first: blocks still on chip
		// are out of its reach.
		for _, a := range shardAddrs(s, 0, 80)[inFlightWindow:] {
			if _, err := s.Put(a, val(a, s.BlockBytes())); err != nil {
				t.Fatal(err)
			}
		}
		adv, err := mem.DialRemote(mem.RemoteConfig{Addr: addr, Namespace: "store/shard-0000/tree-0"})
		if err != nil {
			t.Fatal(err)
		}
		defer adv.Close()
		if (adversary.Garbler{}).GarbleAll(adv, 1<<8) == 0 {
			t.Fatal("nothing of shard 0 found on the bucketd to tamper with")
		}
	}, nil, -1, freecursive.ErrIntegrity)
}
