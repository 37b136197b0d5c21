package bucketd

import (
	"errors"
	"os"
	"runtime"
	"testing"
	"time"

	"freecursive/internal/bucketwire"
	"freecursive/internal/frame"
)

// TestForeignProtocolFrameDropsConnection pins why the two schemas on the
// shared envelope have distinct magics: a well-formed oramstore ("ORMF")
// frame sent to bucketd drops that connection, and another connection on
// the same server keeps being served.
func TestForeignProtocolFrameDropsConnection(t *testing.T) {
	addr, _ := serve(t, New(Config{}))
	good, bad := dial(t, addr), dial(t, addr)
	good.do(writeOne(1, 1, []byte("v")))

	var enc frame.Encoder
	ormf, err := enc.Request(1, []frame.Op{{Addr: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.conn.Write(ormf); err != nil {
		t.Fatal(err)
	}
	bad.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bad.br.ReadByte(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read after an ORMF frame: %v, want the connection dropped", err)
	}
	if got := good.bucket(good.do(readOne(1, 1))); string(got) != "v" {
		t.Errorf("surviving connection reads %q, want v", got)
	}
}

// TestCloseWithFullWindows: Close returns promptly while connections are
// open with full windows of frames whose responses are not yet due, Serve
// returns nil, and no goroutine of the server outlives it.
func TestCloseWithFullWindows(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv := New(Config{RTT: time.Minute})
	addr, done := serve(t, srv)
	const conns, frames = 2, 100 // more frames than a window holds
	for i := 0; i < conns; i++ {
		c := dial(t, addr)
		go func() {
			for j := 0; j < frames; j++ {
				c.id++
				b, err := c.enc.Request(c.id, bucketwire.Request{Op: bucketwire.OpStats, Space: 1})
				if err != nil {
					return
				}
				if _, err := c.conn.Write(b); err != nil {
					return // the server closed the connection
				}
			}
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); srv.Stats().InFlight < conns*64; {
		if time.Now().After(deadline) {
			t.Fatalf("%d frames in flight, want both windows full", srv.Stats().InFlight)
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("Close took %v with responses due in a minute", d)
	}
	if err := <-done; err != nil {
		t.Errorf("Serve after Close: %v", err)
	}
	settle(t, baseline)
}

// settle waits for the goroutine count to come back to baseline.
func settle(t *testing.T, baseline int) {
	t.Helper()
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
