package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"freecursive/internal/frame"
)

// BinaryTransport is the streaming transport: batches ride length-prefixed
// binary frames (freecursive/internal/frame) over a small pool of
// long-lived TCP connections to a server started with
// `oramstore -listen-binary`. Connections are pipelined — many batches in
// flight per connection, correlated by frame ID, answered in completion
// order — so one connection saturates the server's shard pipelines.
//
// A failed connection fails only its in-flight batches (as Transient
// errors, which the Client retries); the next round-trip redials with
// exponential backoff. A server that keeps the socket open but stops
// reading or answering counts as failed after 30 s. The wire timing is
// fixed: a connect attempt gets 5 s, and redials back off from 50 ms to
// 2 s. Configure by setting fields before first use (New does this for
// you); they must not be modified afterwards.
type BinaryTransport struct {
	// Addr is the server's frame listener, host:port.
	Addr string
	// Conns is the connection pool size (default 2). Pipelining makes one
	// connection go far; more help when a single TCP stream's bandwidth
	// or the server's per-connection in-flight window becomes the limit.
	Conns int

	opTimeout time.Duration // binaryOpTimeout; tests shorten it (export_test.go)

	once    sync.Once
	initErr error
	pool    []*binConn
	next    atomic.Uint64
	ids     atomic.Uint64
	closed  atomic.Bool
}

// Binary returns the framed-connection transport for the server listening
// at addr (host:port), for Config.Transport.
func Binary(addr string) *BinaryTransport { return &BinaryTransport{Addr: addr} }

// The binary transport's wire timing.
const (
	// binaryDialTimeout bounds one connection attempt.
	binaryDialTimeout = 5 * time.Second
	// redialMin and redialMax bound the exponential redial backoff.
	redialMin = 50 * time.Millisecond
	redialMax = 2 * time.Second
	// binaryOpTimeout bounds writing one request frame and, while batches
	// are in flight, the wait for the next response frame. An idle
	// connection has no deadline.
	binaryOpTimeout = 30 * time.Second
)

func (t *BinaryTransport) init() error {
	t.once.Do(func() {
		if t.Addr == "" {
			t.initErr = errors.New("client: binary transport needs an address")
			return
		}
		if t.Conns == 0 {
			t.Conns = 2
		}
		if t.Conns < 1 || t.Conns > 64 {
			t.initErr = fmt.Errorf("client: binary transport Conns %d not in [1, 64]", t.Conns)
			return
		}
		if t.opTimeout == 0 {
			t.opTimeout = binaryOpTimeout
		}
		t.pool = make([]*binConn, t.Conns)
		for i := range t.pool {
			t.pool[i] = &binConn{t: t}
		}
	})
	return t.initErr
}

// RoundTrip sends one batch as one request frame on a pooled connection
// (round-robin) and waits for its response frame. Connection failures are
// Transient; a frame-level 503 (store draining) is a Temporary *Error —
// both retried by the Client. Decode failures are terminal and drop the
// connection, because a misframed stream cannot be re-synchronized.
func (t *BinaryTransport) RoundTrip(ctx context.Context, ops []BatchOp) ([]OpResult, error) {
	if err := t.init(); err != nil {
		return nil, err
	}
	if t.closed.Load() {
		return nil, fmt.Errorf("client: %w", ErrClosed)
	}
	c := t.pool[t.next.Add(1)%uint64(len(t.pool))]
	return c.roundTrip(ctx, t.ids.Add(1), ops)
}

// Close closes every pooled connection; their in-flight batches fail.
func (t *BinaryTransport) Close() error {
	if err := t.init(); err != nil {
		return nil
	}
	t.closed.Store(true)
	for _, c := range t.pool {
		c.mu.Lock()
		if c.sess != nil {
			c.sess.conn.Close()
			c.sess = nil
		}
		c.mu.Unlock()
	}
	return nil
}

// binOutcome is what one in-flight batch resolves to.
type binOutcome struct {
	results []OpResult
	err     error
}

// binConn is one pooled connection slot: the current session (nil until
// dialed, replaced after a failure) plus redial backoff state. mu
// serializes dialing and frame writes; waiting for responses happens off
// the lock, which is what permits pipelining.
type binConn struct {
	t *BinaryTransport

	mu        sync.Mutex
	sess      *binSession
	fops      []frame.Op // encode scratch, guarded by mu
	enc       frame.Encoder
	dialFails int
	redialAt  time.Time
}

// binSession is one live TCP connection: the socket and the in-flight
// table its reader goroutine resolves. Once dead it is never revived — the
// binConn dials a fresh session.
//
// The socket's read deadline is the session's one response deadline:
// timeout after the send that began the wait (a send with nothing older in
// flight) or after the previous response frame, cleared while nothing is in
// flight. It is only moved with mu held, so it always agrees with pending.
type binSession struct {
	conn    net.Conn
	timeout time.Duration

	mu      sync.Mutex
	pending map[uint64]chan binOutcome
	dead    bool
	deadErr error
}

// roundTrip encodes and writes one request frame, then waits for the
// session reader to deliver its response.
func (c *binConn) roundTrip(ctx context.Context, id uint64, ops []BatchOp) ([]OpResult, error) {
	c.mu.Lock()
	sess, err := c.ensure(ctx)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.fops = c.fops[:0]
	for _, op := range ops {
		fop := frame.Op{Addr: op.Addr}
		if op.Op == OpPut {
			fop.Put = true
			fop.Data = op.Data
		} else if op.Op != OpGet {
			c.mu.Unlock()
			return nil, fmt.Errorf("client: unknown op %q", op.Op)
		}
		c.fops = append(c.fops, fop)
	}
	out, err := c.enc.Request(id, c.fops)
	if err != nil {
		c.mu.Unlock()
		return nil, err // oversized batch: a caller bug, not a wire failure
	}
	ch := make(chan binOutcome, 1)
	if err := sess.register(id, ch); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	// The frame goes out in one write, unbuffered. A server that stops
	// reading fills the socket buffers; without a write deadline this write
	// would block forever with c.mu held.
	sess.conn.SetWriteDeadline(time.Now().Add(sess.timeout))
	if _, err := sess.conn.Write(out); err != nil {
		// The socket is broken: closing it wakes the session reader,
		// which fails every pending batch — ours included — so there is
		// exactly one delivery path.
		sess.conn.Close()
	}
	c.mu.Unlock()

	select {
	case out := <-ch:
		return out.results, out.err
	case <-ctx.Done():
		sess.forget(id)
		return nil, ctx.Err()
	}
}

// ensure returns a live session, dialing one if needed. Called with c.mu
// held. Dial failures back off exponentially (redialMin doubling to
// redialMax); attempts inside the backoff window fail fast as Transient so
// the client's own retry pacing takes over.
func (c *binConn) ensure(ctx context.Context) (*binSession, error) {
	if c.sess != nil && !c.sess.isDead() {
		return c.sess, nil
	}
	c.sess = nil
	if now := time.Now(); now.Before(c.redialAt) {
		return nil, Transient(fmt.Errorf("client: binary transport backing off until %s",
			c.redialAt.Format(time.RFC3339)))
	}
	d := net.Dialer{Timeout: binaryDialTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.t.Addr)
	if err != nil {
		c.dialFails++
		backoff := min(redialMin<<min(c.dialFails-1, 10), redialMax)
		c.redialAt = time.Now().Add(backoff)
		return nil, Transient(fmt.Errorf("client: %w", err))
	}
	c.dialFails = 0
	c.redialAt = time.Time{}
	sess := &binSession{
		conn:    conn,
		timeout: c.t.opTimeout,
		pending: make(map[uint64]chan binOutcome),
	}
	go sess.read()
	c.sess = sess
	return sess, nil
}

// register adds one in-flight batch to the session, unless it already
// died (its reader failed concurrently).
func (s *binSession) register(id uint64, ch chan binOutcome) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return s.deadErr
	}
	s.pending[id] = ch
	if len(s.pending) == 1 {
		s.expect() // nothing older is in flight: the wait for a frame starts here
	}
	return nil
}

// expect moves the response deadline: timeout from now while batches are in
// flight, none while the session is idle. Called with s.mu held.
func (s *binSession) expect() {
	var deadline time.Time
	if len(s.pending) > 0 {
		deadline = time.Now().Add(s.timeout)
	}
	s.conn.SetReadDeadline(deadline)
}

// forget abandons one in-flight batch (context cancellation). A response
// that still arrives for it is dropped by the reader.
func (s *binSession) forget(id uint64) {
	s.mu.Lock()
	delete(s.pending, id)
	if len(s.pending) == 0 {
		s.expect()
	}
	s.mu.Unlock()
}

func (s *binSession) isDead() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dead
}

// fail kills the session: every in-flight batch resolves with err, and
// later registrations are refused with it.
func (s *binSession) fail(err error) {
	s.conn.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dead = true
	s.deadErr = err
	for id, ch := range s.pending {
		ch <- binOutcome{err: err}
		delete(s.pending, id)
	}
}

// read is the session's reader goroutine: it decodes response frames and
// resolves the in-flight batches they correlate to, in whatever order the
// server finished them. Any read or decode error fails the whole session
// — in-flight batches resolve Transient and the next round-trip redials.
func (s *binSession) read() {
	br := bufio.NewReaderSize(s.conn, 64<<10)
	var dec frame.Decoder
	var buf []byte
	for {
		payload, scratch, err := frame.ReadFrame(br, buf)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				err = fmt.Errorf("no response within %v: %w", s.timeout, err)
			}
			s.fail(Transient(fmt.Errorf("client: binary transport: %w", err)))
			return
		}
		buf = scratch
		id, resp, err := dec.Response(payload)
		if err != nil {
			s.fail(Transient(fmt.Errorf("client: binary transport: %w", err)))
			return
		}
		var out binOutcome
		if resp.Status != 0 {
			// Whole-batch failure frame (the store is draining). Temporary
			// when 503, so it is retried.
			out.err = &Error{
				Status:     int(resp.Status),
				Msg:        "whole-batch failure frame",
				RetryAfter: time.Duration(resp.RetryAfterSeconds) * time.Second,
			}
		} else {
			// The decoder's Data aliases the read buffer; copy before the
			// next frame overwrites it.
			results := make([]OpResult, len(resp.Results))
			for i, r := range resp.Results {
				results[i] = OpResult{
					Status:            int(r.Status),
					Data:              bytes.Clone(r.Data),
					Error:             r.Err,
					RetryAfterSeconds: int(r.RetryAfterSeconds),
				}
			}
			out.results = results
		}
		s.mu.Lock()
		ch, ok := s.pending[id]
		delete(s.pending, id)
		s.expect()
		s.mu.Unlock()
		if ok {
			ch <- out
		}
	}
}
