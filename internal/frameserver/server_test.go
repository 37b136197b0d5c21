package frameserver

import (
	"bufio"
	"bytes"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"freecursive"
	"freecursive/internal/frame"
	"freecursive/internal/store"
)

// startServer builds a small store and a frame server on a loopback
// listener, both torn down with the test.
func startServer(t *testing.T) (*Server, *store.Store, string) {
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
	srv := New(st)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, st, ln.Addr().String()
}

// frameConn is a minimal test-side protocol speaker over one socket.
type frameConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	enc  frame.Encoder
	dec  frame.Decoder
	buf  []byte
}

func dialFrames(t *testing.T, addr string) *frameConn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &frameConn{t: t, conn: conn, br: bufio.NewReader(conn)}
}

func (c *frameConn) send(id uint64, ops []frame.Op) {
	c.t.Helper()
	out, err := c.enc.Request(id, ops)
	if err != nil {
		c.t.Fatal(err)
	}
	if _, err := c.conn.Write(out); err != nil {
		c.t.Fatal(err)
	}
}

// recv reads the next response frame and deep-copies it (the decoder's
// scratch is reused across calls).
func (c *frameConn) recv() (uint64, frame.Response) {
	c.t.Helper()
	payload, buf, err := frame.ReadFrame(c.br, c.buf)
	if err != nil {
		c.t.Fatal(err)
	}
	c.buf = buf
	id, resp, err := c.dec.Response(payload)
	if err != nil {
		c.t.Fatal(err)
	}
	results := make([]frame.Result, len(resp.Results))
	for i, r := range resp.Results {
		results[i] = r
		results[i].Data = bytes.Clone(r.Data)
	}
	resp.Results = results
	return id, resp
}

func TestBatchRoundTrip(t *testing.T) {
	_, st, addr := startServer(t)
	c := dialFrames(t, addr)

	payload := bytes.Repeat([]byte{0x5A}, st.BlockBytes())
	c.send(1, []frame.Op{
		{Put: true, Addr: 42, Data: payload},
		{Addr: 42},
		{Addr: 43}, // never written: zeros
	})
	id, resp := c.recv()
	if id != 1 || resp.Status != 0 {
		t.Fatalf("id=%d status=%d, want 1/0", id, resp.Status)
	}
	if got := resp.Results; len(got) != 3 ||
		got[0].Status != http.StatusNoContent ||
		got[1].Status != http.StatusOK || !bytes.Equal(got[1].Data, payload) ||
		got[2].Status != http.StatusOK || !bytes.Equal(got[2].Data, make([]byte, st.BlockBytes())) {
		t.Fatalf("unexpected results: %+v", got)
	}
}

// TestPerOpFailureDomains: the binary transport reuses the HTTP status
// contract per op — oversized payloads 413, bad addresses 400, a
// quarantined shard 503 with a retry hint, everything else unharmed.
func TestPerOpFailureDomains(t *testing.T) {
	_, st, addr := startServer(t)
	const victim = 2
	if err := st.Quarantine(victim, nil); err != nil {
		t.Fatal(err)
	}
	c := dialFrames(t, addr)

	var quarantined uint64
	for a := uint64(0); ; a++ {
		if st.ShardOf(a) == victim {
			quarantined = a
			break
		}
	}
	var healthy uint64
	for a := uint64(0); ; a++ {
		if st.ShardOf(a) != victim {
			healthy = a
			break
		}
	}
	c.send(9, []frame.Op{
		{Addr: healthy},
		{Addr: quarantined},
		{Addr: st.Blocks() + 1},
		{Put: true, Addr: healthy, Data: make([]byte, st.BlockBytes()+1)},
	})
	_, resp := c.recv()
	got := resp.Results
	if got[0].Status != http.StatusOK {
		t.Fatalf("healthy get: %+v", got[0])
	}
	if got[1].Status != http.StatusServiceUnavailable || got[1].RetryAfterSeconds == 0 || got[1].Err == "" {
		t.Fatalf("quarantined get: %+v", got[1])
	}
	if got[2].Status != http.StatusBadRequest {
		t.Fatalf("out-of-range get: %+v", got[2])
	}
	if got[3].Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized put: %+v", got[3])
	}
}

// TestPipelining: many request frames written back to back on one
// connection, responses collected in whatever order they complete and
// matched by frame ID. This is the protocol's core claim — no
// head-of-line blocking, correlation by ID — plus the read-your-writes
// ordering the store guarantees per shard.
func TestPipelining(t *testing.T) {
	_, st, addr := startServer(t)
	c := dialFrames(t, addr)

	const inFlight = 48
	want := make(map[uint64][]byte, inFlight)
	for i := uint64(0); i < inFlight; i++ {
		payload := bytes.Repeat([]byte{byte(i + 1)}, st.BlockBytes())
		want[100+i] = payload
		// Write then read the same address in one batch: the response
		// must observe the write (per-shard FIFO).
		c.send(100+i, []frame.Op{
			{Put: true, Addr: i, Data: payload},
			{Addr: i},
		})
	}
	seen := make(map[uint64]bool, inFlight)
	for range want {
		id, resp := c.recv()
		if seen[id] {
			t.Fatalf("response %d delivered twice", id)
		}
		seen[id] = true
		payload, ok := want[id]
		if !ok {
			t.Fatalf("response for unknown frame %d", id)
		}
		if resp.Status != 0 || len(resp.Results) != 2 {
			t.Fatalf("frame %d: %+v", id, resp)
		}
		if resp.Results[0].Status != http.StatusNoContent {
			t.Fatalf("frame %d put: %+v", id, resp.Results[0])
		}
		if resp.Results[1].Status != http.StatusOK || !bytes.Equal(resp.Results[1].Data, payload) {
			t.Fatalf("frame %d read-your-write: %+v", id, resp.Results[1])
		}
	}
}

// TestPipeliningConcurrent is the -race stress: several connections, each
// with several writer goroutines funneling through a shared reader,
// batches in flight on every connection at once. Distinct address
// stripes per (conn, writer) make every result checkable.
func TestPipeliningConcurrent(t *testing.T) {
	srv, st, addr := startServer(t)
	const (
		conns   = 4
		writers = 4
		batches = 24
	)
	var wg sync.WaitGroup
	for cn := 0; cn < conns; cn++ {
		wg.Add(1)
		go func(cn int) {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()

			// One reader demuxes by frame ID into per-request channels.
			var pmu sync.Mutex
			pending := make(map[uint64]chan frame.Response)
			go func() {
				br := bufio.NewReader(conn)
				var dec frame.Decoder
				var buf []byte
				for {
					payload, scratch, err := frame.ReadFrame(br, buf)
					if err != nil {
						return // connection closed at test end
					}
					buf = scratch
					id, resp, err := dec.Response(payload)
					if err != nil {
						t.Error(err)
						return
					}
					cp := resp
					cp.Results = make([]frame.Result, len(resp.Results))
					for i, r := range resp.Results {
						cp.Results[i] = r
						cp.Results[i].Data = bytes.Clone(r.Data)
					}
					pmu.Lock()
					ch := pending[id]
					delete(pending, id)
					pmu.Unlock()
					ch <- cp
				}
			}()

			var wmu sync.Mutex
			var enc frame.Encoder
			var inner sync.WaitGroup
			for w := 0; w < writers; w++ {
				inner.Add(1)
				go func(w int) {
					defer inner.Done()
					for b := 0; b < batches; b++ {
						id := uint64(cn)<<32 | uint64(w)<<16 | uint64(b)
						addrOf := uint64((cn*writers+w)*batches+b) % st.Blocks()
						payload := bytes.Repeat([]byte{byte(id%255 + 1)}, st.BlockBytes())
						ch := make(chan frame.Response, 1)
						pmu.Lock()
						pending[id] = ch
						pmu.Unlock()
						wmu.Lock()
						out, err := enc.Request(id, []frame.Op{
							{Put: true, Addr: addrOf, Data: payload},
							{Addr: addrOf},
						})
						if err == nil {
							_, err = conn.Write(out)
						}
						wmu.Unlock()
						if err != nil {
							t.Error(err)
							return
						}
						resp := <-ch
						if resp.Status != 0 || len(resp.Results) != 2 ||
							resp.Results[0].Status != http.StatusNoContent ||
							resp.Results[1].Status != http.StatusOK ||
							!bytes.Equal(resp.Results[1].Data, payload) {
							t.Errorf("conn %d writer %d batch %d: %+v", cn, w, b, resp)
							return
						}
					}
				}(w)
			}
			inner.Wait()
		}(cn)
	}
	wg.Wait()

	ts := srv.TransportStats()
	wantBatches := uint64(conns * writers * batches)
	if ts.Batches != wantBatches {
		t.Fatalf("served %d batches, want %d", ts.Batches, wantBatches)
	}
	if ts.ConnsTotal != conns || ts.BytesRead == 0 || ts.BytesWritten == 0 {
		t.Fatalf("implausible transport stats: %+v", ts)
	}
}

// TestMalformedFrameDropsConnection: a framing error poisons the stream
// position, so the server must hang up rather than keep guessing.
func TestMalformedFrameDropsConnection(t *testing.T) {
	_, _, addr := startServer(t)
	c := dialFrames(t, addr)

	var enc frame.Encoder
	out, err := enc.Request(1, []frame.Op{{Addr: 3}})
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(out)
	bad[4] = 'X' // corrupt the magic
	if _, err := c.conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.br.ReadByte(); err == nil {
		t.Fatal("server answered a malformed frame instead of hanging up")
	}
}

// TestDrainingWholeBatch: a store that is closing answers a frame-level
// 503 instead of per-op failures.
func TestDrainingWholeBatch(t *testing.T) {
	_, st, addr := startServer(t)
	c := dialFrames(t, addr)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	c.send(4, []frame.Op{{Addr: 1}, {Addr: 2}})
	id, resp := c.recv()
	if id != 4 || resp.Status != http.StatusServiceUnavailable || resp.RetryAfterSeconds == 0 {
		t.Fatalf("draining store answered id=%d %+v, want frame-level 503", id, resp)
	}
	if len(resp.Results) != 0 {
		t.Fatalf("frame-level 503 carried %d results", len(resp.Results))
	}
}

// TestInFlightGaugeSettles: the in-flight gauge must return to zero once
// traffic stops (the slot bookkeeping has no leaks).
func TestInFlightGaugeSettles(t *testing.T) {
	srv, st, addr := startServer(t)
	c := dialFrames(t, addr)
	for i := uint64(0); i < 8; i++ {
		c.send(i, []frame.Op{{Put: true, Addr: i, Data: bytes.Repeat([]byte{1}, st.BlockBytes())}})
	}
	for i := 0; i < 8; i++ {
		c.recv()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if srv.TransportStats().InFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight gauge stuck at %d", srv.TransportStats().InFlight)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServeAfterClose(t *testing.T) {
	st, err := store.New(store.Config{
		Shards: 1, Blocks: 64,
		ORAM: freecursive.Config{BlockBytes: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := New(st)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); err == nil {
		t.Fatal("Serve on a closed server succeeded")
	}
}
