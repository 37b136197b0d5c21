package bucketd

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"freecursive/internal/bucketwire"
	"freecursive/internal/frame"
)

// serve starts srv on an ephemeral loopback port and returns its address
// and a channel carrying Serve's return value.
func serve(t *testing.T, srv *Server) (string, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), done
}

// wireConn is a raw bucketwire client: unlike mem.Remote it lets a test
// pipeline arbitrary frames and see each response exactly as sent.
type wireConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	enc  bucketwire.Encoder
	dec  bucketwire.Decoder
	buf  []byte
	id   uint64
}

func dial(t *testing.T, addr string) *wireConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &wireConn{t: t, conn: conn, br: bufio.NewReader(conn)}
}

// send writes one request frame without waiting for its response.
func (c *wireConn) send(req bucketwire.Request) uint64 {
	c.t.Helper()
	c.id++
	b, err := c.enc.Request(c.id, req)
	if err != nil {
		c.t.Fatal(err)
	}
	if _, err := c.conn.Write(b); err != nil {
		c.t.Fatal(err)
	}
	return c.id
}

// recv reads the next response frame; payloads are copied out of the
// receive buffer so several responses can be held at once.
func (c *wireConn) recv() (uint64, bucketwire.Response) {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, buf, err := frame.ReadFrame(c.br, c.buf)
	if err != nil {
		c.t.Fatalf("reading response: %v", err)
	}
	c.buf = buf
	id, resp, err := c.dec.Response(payload)
	if err != nil {
		c.t.Fatal(err)
	}
	bufs := make([][]byte, len(resp.Bufs)) // resp.Bufs is the decoder's scratch
	for i, b := range resp.Bufs {
		bufs[i] = bytes.Clone(b)
	}
	resp.Bufs = bufs
	return id, resp
}

// readOne and writeOne are the one-bucket paths a single bucket travels as.
func readOne(space, idx uint64) bucketwire.Request {
	return bucketwire.Request{Op: bucketwire.OpReadPath, Space: space, Idxs: []uint64{idx}}
}

func writeOne(space, idx uint64, data []byte) bucketwire.Request {
	return bucketwire.Request{Op: bucketwire.OpWritePath, Space: space, Idxs: []uint64{idx}, Bufs: [][]byte{data}}
}

// bucket is the one bucket a one-bucket readpath answer carries.
func (c *wireConn) bucket(resp bucketwire.Response) []byte {
	c.t.Helper()
	if len(resp.Bufs) != 1 {
		c.t.Fatalf("one-bucket read answered with %d buckets", len(resp.Bufs))
	}
	return resp.Bufs[0]
}

// do is one synchronous operation that must succeed.
func (c *wireConn) do(req bucketwire.Request) bucketwire.Response {
	c.t.Helper()
	want := c.send(req)
	id, resp := c.recv()
	if id != want || resp.Op != req.Op || resp.Status != 0 {
		c.t.Fatalf("op %d: response id %d op %d status %d (%s), want id %d ok", req.Op, id, resp.Op, resp.Status, resp.Err, want)
	}
	return resp
}

// TestPipelinedFramesApplyAndAnswerInOrder pins the connection-as-ordering-
// domain contract: frames sent back to back are applied in arrival order
// (each read sees exactly the writes before it) and answered in that order.
func TestPipelinedFramesApplyAndAnswerInOrder(t *testing.T) {
	srv := New(Config{})
	addr, _ := serve(t, srv)
	c := dial(t, addr)

	reqs := []bucketwire.Request{
		writeOne(7, 1, []byte("a")),
		readOne(7, 1),
		{Op: bucketwire.OpWritePath, Space: 7, Idxs: []uint64{1, 3}, Bufs: [][]byte{[]byte("b"), []byte("c")}},
		{Op: bucketwire.OpReadPath, Space: 7, Idxs: []uint64{3, 2, 1}},
		readOne(8, 1), // another space: untouched
	}
	var ids []uint64
	for _, req := range reqs {
		ids = append(ids, c.send(req))
	}
	var resps []bucketwire.Response
	for i, req := range reqs {
		id, resp := c.recv()
		if id != ids[i] || resp.Op != req.Op || resp.Status != 0 {
			t.Fatalf("response %d: id %d op %d status %d, want id %d op %d ok", i, id, resp.Op, resp.Status, ids[i], req.Op)
		}
		resps = append(resps, resp)
	}
	if got := c.bucket(resps[1]); string(got) != "a" {
		t.Errorf("read after write(a) = %q", got)
	}
	path := resps[3].Bufs
	if len(path) != 3 || string(path[0]) != "c" || path[1] != nil || string(path[2]) != "b" {
		t.Errorf("readpath [3 2 1] after writepath = %q, want [c <nil> b]", path)
	}
	if got := c.bucket(resps[4]); got != nil {
		t.Errorf("space 8 sees space 7's bucket: %q", got)
	}
	if got := srv.FramesServed(); got != uint64(len(reqs)) {
		t.Errorf("FramesServed = %d, want %d", got, len(reqs))
	}
}

// TestFailEveryAnswers500WithoutTouchingStorage pins the fault injector:
// the Nth data operation is answered 500, is not applied, and is not shown
// to the wiretap; the operations around it are unaffected.
func TestFailEveryAnswers500WithoutTouchingStorage(t *testing.T) {
	traced := make(chan uint64, 16) // sized to the test's sends
	srv := New(Config{FailEvery: 2, Trace: func(_ byte, _, idx uint64) { traced <- idx }})
	addr, _ := serve(t, srv)
	c := dial(t, addr)

	c.do(writeOne(1, 10, []byte("kept"))) // op 1
	c.send(writeOne(1, 11, []byte("lost")))
	if _, resp := c.recv(); resp.Status != 500 || resp.Err == "" { // op 2
		t.Fatalf("second data op: status %d err %q, want 500 with a message", resp.Status, resp.Err)
	}
	if got := c.bucket(c.do(readOne(1, 11))); got != nil { // op 3
		t.Errorf("failed write landed: %q", got)
	}
	// Stats is not a data operation: it neither fails nor advances the count.
	if st := c.do(bucketwire.Request{Op: bucketwire.OpStats, Space: 1}); st.Bytes != 4 {
		t.Errorf("stats after a failed write: %d bytes, want 4", st.Bytes)
	}
	c.send(readOne(1, 10))
	if _, resp := c.recv(); resp.Status != 500 { // op 4
		t.Errorf("fourth data op: status %d, want 500", resp.Status)
	}
	close(traced)
	var seen []uint64
	for idx := range traced {
		seen = append(seen, idx)
	}
	if len(seen) != 2 || seen[0] != 10 || seen[1] != 11 {
		t.Errorf("wiretap saw %v, want [10 11] (the write of 10 and the read of 11)", seen)
	}
}

// TestRTTWithholdsResponsesWhileApplyingLaterFrames pins the latency model
// every remote-memory measurement rests on: a response leaves no earlier than RTT after its
// frame arrived, but later frames are applied meanwhile, so pipelined
// frames overlap their delays instead of queueing behind each other.
func TestRTTWithholdsResponsesWhileApplyingLaterFrames(t *testing.T) {
	const rtt = 300 * time.Millisecond
	applied := make(chan struct{}, 2) // one token per frame sent
	srv := New(Config{RTT: rtt, Trace: func(byte, uint64, uint64) { applied <- struct{}{} }})
	addr, _ := serve(t, srv)
	c := dial(t, addr)

	start := time.Now()
	c.send(writeOne(1, 1, []byte("x")))
	c.send(readOne(1, 1))
	for i := 0; i < 2; i++ {
		select {
		case <-applied:
		case <-time.After(rtt):
			t.Fatalf("frame %d not applied within one RTT: processing stalls behind a withheld response", i+1)
		}
	}
	if _, resp := c.recv(); resp.Status != 0 {
		t.Fatalf("write failed: %d %s", resp.Status, resp.Err)
	}
	if d := time.Since(start); d < rtt {
		t.Errorf("first response after %v, want it withheld at least %v", d, rtt)
	}
	if _, resp := c.recv(); string(c.bucket(resp)) != "x" {
		t.Errorf("pipelined read = %q, want x", resp.Bufs)
	}
	if d := time.Since(start); d >= 2*rtt {
		t.Errorf("two pipelined frames took %v: their %v delays did not overlap", d, rtt)
	}
}

// TestMalformedFrameDropsOnlyThatConnection pins the framing-error policy:
// the offending connection is closed (its stream position is untrusted),
// nothing it sent afterwards is applied, and other connections and new
// dials are unaffected.
func TestMalformedFrameDropsOnlyThatConnection(t *testing.T) {
	srv := New(Config{})
	addr, _ := serve(t, srv)
	good, bad := dial(t, addr), dial(t, addr)
	good.do(writeOne(1, 1, []byte("v")))

	// A well-formed frame behind the garbage must not be applied.
	after, err := bad.enc.Request(1, writeOne(1, 1, []byte("after garbage")))
	if err != nil {
		t.Fatal(err)
	}
	garbage := binary.LittleEndian.AppendUint32(nil, 16)
	garbage = append(garbage, "not a bucketwire"...)
	if _, err := bad.conn.Write(append(garbage, after...)); err != nil {
		t.Fatal(err)
	}
	// Dropped: the read ends (EOF, or a reset if bytes were left unread)
	// instead of waiting for a response.
	bad.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bad.br.ReadByte(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read on the malformed connection: %v, want the connection dropped", err)
	}

	if got := good.bucket(good.do(readOne(1, 1))); string(got) != "v" {
		t.Errorf("surviving connection reads %q, want v", got)
	}
	fresh := dial(t, addr)
	if got := fresh.bucket(fresh.do(readOne(1, 1))); string(got) != "v" {
		t.Errorf("fresh connection reads %q, want v", got)
	}
}

// TestRetiredOpFrameDropsConnection: a frame naming one of the retired
// per-bucket op bytes (read 1, write 2, peek 5, poke 6), in the shape the
// protocol once gave it, is malformed — bucketd drops that connection,
// applies nothing it sent, and another connection keeps being served.
func TestRetiredOpFrameDropsConnection(t *testing.T) {
	srv := New(Config{})
	addr, _ := serve(t, srv)
	good := dial(t, addr)
	good.do(writeOne(1, 1, []byte("v")))
	for _, op := range []byte{1, 2, 5, 6} {
		bad := dial(t, addr)
		// A stats frame is the envelope, op and space; the retired ops
		// followed them with an index, and write and poke with a bucket.
		b, err := bad.enc.Request(1, bucketwire.Request{Op: bucketwire.OpStats, Space: 1})
		if err != nil {
			t.Fatal(err)
		}
		b = binary.LittleEndian.AppendUint64(bytes.Clone(b), 1) // idx
		if op == 2 || op == 6 {
			b = append(binary.LittleEndian.AppendUint32(b, 6), "forged"...)
		}
		b[4+16] = op
		binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
		if _, err := bad.conn.Write(b); err != nil {
			t.Fatal(err)
		}
		bad.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := bad.br.ReadByte(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("op %d: read on the connection: %v, want it dropped", op, err)
		}
		if got := good.bucket(good.do(readOne(1, 1))); string(got) != "v" {
			t.Fatalf("after op %d: surviving connection reads %q, want v", op, got)
		}
	}
}

// TestCloseUnblocksServeAndWaitsForHandlers pins the lifecycle: Close makes
// Serve return nil, has torn down every connection handler by the time it
// returns, is idempotent, and a closed server refuses to serve again.
func TestCloseUnblocksServeAndWaitsForHandlers(t *testing.T) {
	srv := New(Config{})
	addr, done := serve(t, srv)
	c := dial(t, addr)
	c.do(writeOne(1, 1, []byte("v"))) // a live handler

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve returned %v after Close, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still blocked after Close")
	}
	// Close waited for the handler, so the connection is already closed.
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.br.ReadByte(); err != io.EOF {
		t.Errorf("read after Close: %v, want EOF", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); err == nil {
		t.Error("Serve on a closed server returned nil")
	}
}

// TestPokeNilDeletesAndStatsTracksResidentBytes pins the footprint
// accounting mem.Remote.Stats reports: per space, bytes follow every
// overwrite and delete, and a nil bucket in a writepath — what mem.Remote
// sends for Write(idx, nil) — removes the bucket.
func TestPokeNilDeletesAndStatsTracksResidentBytes(t *testing.T) {
	srv := New(Config{})
	addr, _ := serve(t, srv)
	c := dial(t, addr)
	stats := func(space uint64) uint64 {
		return c.do(bucketwire.Request{Op: bucketwire.OpStats, Space: space}).Bytes
	}

	c.do(writeOne(1, 1, []byte("abc")))
	c.do(writeOne(1, 2, []byte("de")))
	if b := stats(1); b != 5 {
		t.Errorf("after two stores: %d bytes, want 5", b)
	}
	c.do(writeOne(1, 2, []byte("defg")))
	if b := stats(1); b != 7 {
		t.Errorf("after a longer overwrite: %d bytes, want 7", b)
	}
	c.do(writeOne(1, 1, nil))
	if got := c.bucket(c.do(readOne(1, 1))); got != nil {
		t.Errorf("a nil write left %q behind", got)
	}
	if b := stats(1); b != 4 {
		t.Errorf("after a nil write: %d bytes, want 4", b)
	}
	c.do(writeOne(1, 9, nil)) // deleting nothing is a no-op
	if b := stats(1); b != 4 {
		t.Errorf("after deleting an absent bucket: %d bytes, want 4", b)
	}
	if b := stats(2); b != 0 {
		t.Errorf("untouched space reports %d bytes", b)
	}
}
