package client_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freecursive"
	"freecursive/client"
	"freecursive/internal/frame"
	"freecursive/internal/frameserver"
	"freecursive/internal/store"
)

// binaryServer serves a small store over the frame protocol on a loopback
// port, the same stack `oramstore -listen-binary` runs.
func binaryServer(t *testing.T) (*store.Store, string) {
	t.Helper()
	st, err := store.New(store.Config{
		Shards: 4,
		Blocks: 1 << 10,
		ORAM:   freecursive.Config{BlockBytes: 16, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := frameserver.New(st)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return st, ln.Addr().String()
}

func newBinaryClient(t *testing.T, addr string, cfg client.Config) *client.Client {
	t.Helper()
	return newClient(t, client.Binary(addr), cfg)
}

func TestBinaryGetPutRoundTrip(t *testing.T) {
	st, addr := binaryServer(t)
	c := newBinaryClient(t, addr, client.Config{})
	want := bytes.Repeat([]byte{0x5A}, st.BlockBytes())
	if err := c.Put(42, want); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Get(42) = %x, want %x", got, want)
	}
	zeros, err := c.Get(43)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(zeros, make([]byte, st.BlockBytes())) {
		t.Fatalf("never-written Get = %x, want zeros", zeros)
	}
}

// TestBinaryPerOpErrors: per-op failures cross the wire as the
// single-block endpoints' status codes and surface as *Error values.
func TestBinaryPerOpErrors(t *testing.T) {
	st, addr := binaryServer(t)
	c := newBinaryClient(t, addr, client.Config{MaxRetries: -1})

	if _, err := c.Get(st.Blocks() + 7); client.AsError(err) == nil ||
		client.AsError(err).Status != http.StatusBadRequest {
		t.Fatalf("out-of-range Get: %v, want *Error 400", err)
	}
	if err := c.Put(1, make([]byte, st.BlockBytes()+1)); client.AsError(err) == nil ||
		client.AsError(err).Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized Put: %v, want *Error 413", err)
	}

	const victim = 3
	if err := st.Quarantine(victim, nil); err != nil {
		t.Fatal(err)
	}
	var addr2 uint64
	for st.ShardOf(addr2) != victim {
		addr2++
	}
	_, err := c.Get(addr2)
	e := client.AsError(err)
	if e == nil || e.Status != http.StatusServiceUnavailable || !e.Temporary() || e.RetryAfter <= 0 {
		t.Fatalf("quarantined Get: %v, want temporary *Error 503 with Retry-After", err)
	}
}

// TestBinaryDoMixedBatch: explicit batches preserve index alignment across
// the wire, including per-op failures sandwiched between successes.
func TestBinaryDoMixedBatch(t *testing.T) {
	st, addr := binaryServer(t)
	c := newBinaryClient(t, addr, client.Config{})
	payload := bytes.Repeat([]byte{9}, st.BlockBytes())
	results, err := c.Do([]client.BatchOp{
		{Op: client.OpPut, Addr: 5, Data: payload},
		{Op: client.OpGet, Addr: 5},
		{Op: client.OpGet, Addr: st.Blocks() + 1},
		{Op: client.OpGet, Addr: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	if results[0].Status != http.StatusNoContent ||
		results[1].Status != http.StatusOK || !bytes.Equal(results[1].Data, payload) ||
		results[2].Status != http.StatusBadRequest || results[2].Error == "" ||
		results[3].Status != http.StatusOK {
		t.Fatalf("unexpected results: %+v", results)
	}
}

// TestBinaryReconnect: a server restart fails the in-flight session; the
// transport's next round-trip redials and the Client's retry loop hides
// the blip from the caller entirely.
func TestBinaryReconnect(t *testing.T) {
	st, err := store.New(store.Config{
		Shards: 2,
		Blocks: 1 << 8,
		ORAM:   freecursive.Config{BlockBytes: 16, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := frameserver.New(st)
	go srv.Serve(ln)

	c := newBinaryClient(t, addr, client.Config{
		MaxRetries:   8,
		MaxRetryWait: 100 * time.Millisecond,
	})
	want := bytes.Repeat([]byte{0xC3}, st.BlockBytes())
	if err := c.Put(1, want); err != nil {
		t.Fatal(err)
	}

	// Kill the server: the client's live session dies with it.
	srv.Close()

	// Restart on the same port. The first Get may burn retries on dial
	// refusals while the port rebinds, but must succeed within the retry
	// budget — the caller never sees the restart.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := frameserver.New(st)
	go srv2.Serve(ln2)
	t.Cleanup(func() { srv2.Close() })

	got, err := c.Get(1)
	if err != nil {
		t.Fatalf("Get after server restart: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Get after restart = %x, want %x", got, want)
	}
}

// TestBinaryServerDownIsTransient: with nobody listening, the failure is
// transient (the Client retries it) and, once retries are spent, is the
// dial error — not a panic, not a hang.
func TestBinaryServerDownIsTransient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listening here anymore

	c := newBinaryClient(t, addr, client.Config{
		MaxRetries:   2,
		MaxRetryWait: 10 * time.Millisecond,
	})
	if _, err := c.Get(1); err == nil {
		t.Fatal("Get with no server succeeded")
	}
}

// TestBinaryDrainingRetries: a draining store answers frame-level 503s;
// the transport surfaces them as Temporary *Errors so the Client retries,
// then reports the 503.
func TestBinaryDrainingRetries(t *testing.T) {
	st, addr := binaryServer(t)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	c := newBinaryClient(t, addr, client.Config{
		MaxRetries:   2,
		MaxRetryWait: 10 * time.Millisecond,
	})
	_, err := c.Get(1)
	e := client.AsError(err)
	if e == nil || e.Status != http.StatusServiceUnavailable || e.RetryAfter <= 0 {
		t.Fatalf("draining store Get: %v, want *Error 503 with Retry-After", err)
	}
}

// TestBinaryConcurrentStress drives many goroutines through one Client
// (micro-batching on, several pooled connections) — the -race workout for
// the whole client-side pipeline: collector, transport pool, session
// reader, response demux.
func TestBinaryConcurrentStress(t *testing.T) {
	st, addr := binaryServer(t)
	tr := client.Binary(addr)
	tr.Conns = 3
	c, err := client.New(client.Config{
		Transport:     tr,
		MaxBatch:      8,
		FlushInterval: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	const (
		workers = 16
		rounds  = 32
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				addr := uint64(w*rounds+r) % st.Blocks()
				want := bytes.Repeat([]byte{byte(w + 1)}, st.BlockBytes())
				if err := c.Put(addr, want); err != nil {
					t.Errorf("worker %d round %d put: %v", w, r, err)
					return
				}
				got, err := c.Get(addr)
				if err != nil {
					t.Errorf("worker %d round %d get: %v", w, r, err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("worker %d round %d: got %x, want %x", w, r, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestBinaryTransportContextCancel: a canceled context abandons the wait
// without wedging the session — later round-trips on the same transport
// still work.
func TestBinaryTransportContextCancel(t *testing.T) {
	_, addr := binaryServer(t)
	tr := client.Binary(addr)
	t.Cleanup(func() { tr.Close() })

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tr.RoundTrip(ctx, []client.BatchOp{{Op: client.OpGet, Addr: 1}}); err == nil {
		t.Fatal("round-trip with canceled context succeeded")
	}
	results, err := tr.RoundTrip(context.Background(), []client.BatchOp{{Op: client.OpGet, Addr: 1}})
	if err != nil {
		t.Fatalf("round-trip after cancellation: %v", err)
	}
	if len(results) != 1 || results[0].Status != http.StatusOK {
		t.Fatalf("unexpected results after cancellation: %+v", results)
	}
}

func TestConfigTransportValidation(t *testing.T) {
	if _, err := client.New(client.Config{}); err == nil {
		t.Fatal("New without a Transport succeeded")
	}
	if _, err := client.New(client.Config{Transport: client.Binary("")}); err == nil {
		t.Fatal("New with empty binary address succeeded")
	}
	if _, err := client.New(client.Config{Transport: &client.BinaryTransport{
		Addr: "127.0.0.1:1", Conns: 65,
	}}); err == nil {
		t.Fatal("New with oversized pool succeeded")
	}
}

// TestBinaryClosedClient: operations after Close fail with ErrClosed and
// the transport refuses further round-trips.
func TestBinaryClosedClient(t *testing.T) {
	_, addr := binaryServer(t)
	tr := client.Binary(addr)
	c, err := client.New(client.Config{Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(1); err == nil {
		t.Fatal("Get on closed client succeeded")
	}
	if _, err := tr.RoundTrip(context.Background(), []client.BatchOp{{Op: client.OpGet, Addr: 1}}); err == nil {
		t.Fatal("RoundTrip on closed transport succeeded")
	}
}

// TestBinaryUnknownOp: a malformed BatchOp is a caller bug — terminal,
// never sent, never retried.
func TestBinaryUnknownOp(t *testing.T) {
	_, addr := binaryServer(t)
	tr := client.Binary(addr)
	t.Cleanup(func() { tr.Close() })
	_, err := tr.RoundTrip(context.Background(), []client.BatchOp{{Op: "munge", Addr: 1}})
	if err == nil {
		t.Fatal("unknown op round-tripped")
	}
	if fmt.Sprint(err) == "" {
		t.Fatal("empty error")
	}
}

// silentServer accepts connections and never answers. With drain it reads
// and discards what clients send (a mute server); without, it never reads
// either, so a large enough write blocks in the client. frames counts the
// request frames a draining server has seen.
func silentServer(t *testing.T, drain bool) (addr string, frames *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	frames = new(atomic.Int64)
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			if !drain {
				// A small receive window makes the client's write block
				// after a few hundred KiB instead of a few MiB.
				conn.(*net.TCPConn).SetReadBuffer(4 << 10)
				continue
			}
			go func() {
				br := bufio.NewReader(conn)
				var buf []byte
				for {
					_, scratch, err := frame.ReadFrame(br, buf)
					if err != nil {
						return
					}
					buf = scratch
					frames.Add(1)
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	return ln.Addr().String(), frames
}

// TestBinaryMuteServerFailsPending: a server that accepts, reads and never
// answers must not wedge its callers. Every batch in flight on the
// connection — one, or eight pipelined — resolves with a retryable
// transport error once the response deadline passes.
func TestBinaryMuteServerFailsPending(t *testing.T) {
	for _, pending := range []int{1, 8} {
		t.Run(fmt.Sprint(pending), func(t *testing.T) {
			addr, frames := silentServer(t, true)
			tr := &client.BinaryTransport{Addr: addr, Conns: 1}
			tr.SetOpTimeout(300 * time.Millisecond)
			t.Cleanup(func() { tr.Close() })

			errs := make(chan error, pending)
			for i := 0; i < pending; i++ {
				go func(i int) {
					_, err := tr.RoundTrip(context.Background(), []client.BatchOp{{Op: client.OpGet, Addr: uint64(i)}})
					errs <- err
				}(i)
			}
			for i := 0; i < pending; i++ {
				select {
				case err := <-errs:
					if err == nil || !client.Retryable(err) {
						t.Fatalf("batch against a mute server: %v, want a retryable transport error", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("%d of %d batches still pending on a mute server", pending-i, pending)
				}
			}
			if got := frames.Load(); got != int64(pending) {
				t.Fatalf("server saw %d request frames, want %d", got, pending)
			}
		})
	}
}

// TestBinaryServerThatNeverReadsFailsWrite: a server that stops reading
// fills the socket buffers, so the frame write itself blocks — with the
// connection's lock held. The deadline must release it, and a caller
// queued behind the lock must not hang either.
func TestBinaryServerThatNeverReadsFailsWrite(t *testing.T) {
	addr, _ := silentServer(t, false)
	tr := &client.BinaryTransport{Addr: addr, Conns: 1}
	tr.SetOpTimeout(300 * time.Millisecond)
	t.Cleanup(func() { tr.Close() })

	// One 8 MiB frame: more than loopback socket buffers hold.
	block := make([]byte, 16<<10)
	big := make([]client.BatchOp, 512)
	for i := range big {
		big[i] = client.BatchOp{Op: client.OpPut, Addr: uint64(i), Data: block}
	}
	errs := make(chan error, 2)
	go func() {
		_, err := tr.RoundTrip(context.Background(), big)
		errs <- err
	}()
	go func() {
		_, err := tr.RoundTrip(context.Background(), []client.BatchOp{{Op: client.OpGet, Addr: 1}})
		errs <- err
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil || !client.Retryable(err) {
				t.Fatalf("batch against a server that never reads: %v, want a retryable transport error", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a batch is still blocked on a server that never reads")
		}
	}
}
