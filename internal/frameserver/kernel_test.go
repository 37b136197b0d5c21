package frameserver

import (
	"errors"
	"net"
	"net/http"
	"os"
	"runtime"
	"testing"
	"time"

	"freecursive"
	"freecursive/internal/bucketwire"
	"freecursive/internal/frame"
	"freecursive/internal/store"
)

// TestForeignProtocolFrameDropsConnection pins why the two schemas on the
// shared envelope have distinct magics: a well-formed bucket ("ORMB")
// frame sent to the frame server drops that connection, and another
// connection on the same server keeps being served.
func TestForeignProtocolFrameDropsConnection(t *testing.T) {
	_, _, addr := startServer(t)
	good, bad := dialFrames(t, addr), dialFrames(t, addr)

	var enc bucketwire.Encoder
	ormb, err := enc.Request(1, bucketwire.Request{Op: bucketwire.OpReadPath, Space: 1, Idxs: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.conn.Write(ormb); err != nil {
		t.Fatal(err)
	}
	bad.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bad.br.ReadByte(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read after an ORMB frame: %v, want the connection dropped", err)
	}
	good.send(2, []frame.Op{{Addr: 1}})
	if id, resp := good.recv(); id != 2 || resp.Status != 0 || resp.Results[0].Status != http.StatusOK {
		t.Fatalf("surviving connection: id %d %+v", id, resp)
	}
}

// TestCloseWithFullWindow: a client that sends batch after batch and never
// reads fills the socket buffers and then the connection's window. Close
// still returns, Serve returns nil, and once the store is closed too no
// goroutine outlives them.
//
// The window fills only once the store has served every batch the socket
// buffers absorb (a dozen or so 256 KiB responses on loopback) and 64
// more: the read loop submits a batch only as fast as the shard drains its
// queue. So every get names one address, which the shard coalesces into
// about two ORAM accesses per batch. With 64 distinct addresses a batch
// would cost 64 accesses, ~100 ms under -race on a 2-vCPU box, and the
// window would still be filling when the wait runs out.
func TestCloseWithFullWindow(t *testing.T) {
	baseline := runtime.NumGoroutine()
	st, err := store.New(store.Config{
		Shards: 1, Blocks: 64,
		ORAM: freecursive.Config{BlockBytes: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	idle := dialFrames(t, ln.Addr().String()) // open, nothing in flight
	mute := dialFrames(t, ln.Addr().String())
	mute.conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	ops := make([]frame.Op, 64) // 64 gets of one 4 KiB block: ~256 KiB per response
	req, err := mute.enc.Request(0, ops)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < 200; i++ {
			if _, err := mute.conn.Write(req); err != nil {
				return // the server closed the connection
			}
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); srv.TransportStats().InFlight < 64; {
		if time.Now().After(deadline) {
			t.Fatalf("%d batches in flight, want a full window", srv.TransportStats().InFlight)
		}
		time.Sleep(time.Millisecond)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Errorf("Serve after Close: %v", err)
	}
	if ts := srv.TransportStats(); ts.ConnsOpen != 0 || ts.InFlight != 0 {
		t.Errorf("after Close: %d connections open, %d batches in flight", ts.ConnsOpen, ts.InFlight)
	}
	idle.conn.Close()
	mute.conn.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before the server:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
