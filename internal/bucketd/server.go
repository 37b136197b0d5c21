// Package bucketd is the remote untrusted bucket store: a minimal TCP
// server holding sealed ORAM buckets in named spaces, speaking the
// bucketwire protocol to mem.Remote clients.
//
// bucketd sits OUTSIDE the trust boundary — it is the paper's untrusted
// memory made literal. It stores and serves bytes; it never sees keys,
// plaintexts, or the position map, and nothing here is trusted to be
// honest: a tampered, deleted, or replayed bucket is caught by the
// controller's decryption and PMMAC layers on the client side, exactly as
// for any other mem.Backend. Consequently the server needs no
// authentication or integrity machinery of its own (and a real deployment
// would still wrap the connection in TLS purely for transport privacy).
//
// # Connections and ordering
//
// Each connection is an ordering domain: frames are applied to storage in
// arrival order, one at a time, so a client that writes then reads on one
// connection reads its own write. Responses return in the same order.
// Distinct connections are applied concurrently (per-space locking), which
// is safe because every ORAM tree lives in its own space and is driven by
// exactly one single-threaded controller.
//
// A response is not sent before Config.RTT has elapsed since its frame was
// received, while later frames keep being read and applied — so pipelined
// frames overlap their RTTs. That is the lever batched path I/O pulls: a
// per-bucket loop would pay ~2·logN·RTT per ORAM access, the path protocol
// pays ~1-2·RTT.
//
// On any malformed frame the connection is dropped: a framing error means
// the stream position cannot be trusted (see bucketwire).
package bucketd

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"freecursive/internal/bucketwire"
	"freecursive/internal/frame"
)

// Config parameterizes a Server.
type Config struct {
	// RTT is the injected network round-trip: each response is withheld
	// until RTT after its request frame was received, without stalling the
	// processing of later frames (pipelining overlaps the delays). Zero
	// serves as fast as the loopback allows.
	RTT time.Duration
	// FailEvery, when nonzero, makes every FailEvery-th data operation
	// (counted across all connections and spaces) answer status 500 instead
	// of touching storage — deterministic server-side fault injection for
	// quarantine and chaos tests.
	FailEvery uint64
	// Trace, when set, is called for every bucket index a data operation
	// touches, before the operation is applied: once per read/write/peek/
	// poke, once per bucket of a readpath/writepath, in wire order. It runs
	// on connection goroutines and must be safe for concurrent use. This is
	// the adversary's wiretap: what an honest-but-curious bucketd observes.
	Trace func(op byte, space, idx uint64)
	// Logf, when set, receives connection-level events (accepts, drops).
	Logf func(format string, args ...any)
}

// space is one bucket namespace: a sparse map like mem.Store, but behind a
// mutex because distinct client connections may share a space (a controller
// reconnecting, an adversary peeking at a live tree).
type space struct {
	mu      sync.Mutex
	buckets map[uint64][]byte
	bytes   uint64
}

// put stores data (copying it — req payloads alias the connection's read
// buffer) or deletes the bucket when data is nil. Caller holds sp.mu.
func (sp *space) put(idx uint64, data []byte) {
	old, ok := sp.buckets[idx]
	if ok {
		sp.bytes -= uint64(len(old))
	}
	if data == nil {
		if ok {
			delete(sp.buckets, idx)
		}
		return
	}
	sp.bytes += uint64(len(data))
	if cap(old) >= len(data) {
		buf := old[:len(data)]
		copy(buf, data)
		sp.buckets[idx] = buf
		return
	}
	sp.buckets[idx] = bytes.Clone(data)
}

// Server is a bucketd instance. Create with New, start with Serve, stop
// with Close.
type Server struct {
	cfg Config

	mu     sync.Mutex
	spaces map[uint64]*space
	conns  map[net.Conn]struct{}
	lns    []net.Listener

	closed atomic.Bool
	wg     sync.WaitGroup

	ops    atomic.Uint64 // data operations served (drives FailEvery)
	frames atomic.Uint64
}

// New builds a Server.
func New(cfg Config) *Server {
	return &Server{
		cfg:    cfg,
		spaces: make(map[uint64]*space),
		conns:  make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections on ln until Close. It returns nil after Close;
// any other accept error is returned as-is. Serve may be called on several
// listeners concurrently.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		ln.Close()
		return errors.New("bucketd: server closed")
	}
	s.lns = append(s.lns, ln)
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// Close stops accepting, drops every live connection, and waits for the
// connection goroutines to exit. Stored buckets are kept (a Server can in
// principle serve again), but the usual lifecycle is one Serve, one Close.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.mu.Lock()
	for _, ln := range s.lns {
		ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// FramesServed returns the total frames applied, for tests and monitoring.
func (s *Server) FramesServed() uint64 { return s.frames.Load() }

// space returns (creating if needed) the namespace id maps to.
func (s *Server) space(id uint64) *space {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp, ok := s.spaces[id]
	if !ok {
		sp = &space{buckets: make(map[uint64][]byte)}
		s.spaces[id] = sp
	}
	return sp
}

// outFrame is one encoded response waiting for its RTT to elapse.
type outFrame struct {
	due time.Time
	b   []byte
}

// handle runs one connection: a read loop applying frames in order, and a
// writer goroutine releasing responses at their due times. The bounded
// channel is the pipelining window — a client keeping more than its
// capacity in flight simply blocks the read loop, which is backpressure,
// not an error.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	if s.cfg.Logf != nil {
		s.cfg.Logf("conn %s: accepted", conn.RemoteAddr())
	}

	out := make(chan outFrame, 256)
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		for f := range out {
			if d := time.Until(f.due); d > 0 {
				time.Sleep(d)
			}
			if _, err := conn.Write(f.b); err != nil {
				// Keep draining so the read loop never blocks on a dead
				// peer; the read side notices the closed conn and exits.
				conn.Close()
			}
		}
	}()
	defer wwg.Wait()
	defer close(out)

	br := bufio.NewReaderSize(conn, 1<<16)
	var (
		dec     bucketwire.Decoder
		enc     bucketwire.Encoder
		readBuf []byte
	)
	for {
		payload, buf, err := frame.ReadFrame(br, readBuf)
		if err != nil {
			return // EOF, peer gone, or oversized frame: drop the conn
		}
		readBuf = buf
		arrived := time.Now()
		id, req, err := dec.Request(payload)
		if err != nil {
			if s.cfg.Logf != nil {
				s.cfg.Logf("conn %s: dropped: %v", conn.RemoteAddr(), err)
			}
			return // stream position untrusted: drop the conn
		}
		s.frames.Add(1)
		resp := s.apply(req)
		b, err := enc.Response(id, resp)
		if err != nil {
			return
		}
		out <- outFrame{due: arrived.Add(s.cfg.RTT), b: bytes.Clone(b)}
	}
}

// trace reports every bucket index req touches to the Trace hook.
func (s *Server) trace(req bucketwire.Request) {
	if s.cfg.Trace == nil {
		return
	}
	switch req.Op {
	case bucketwire.OpReadPath, bucketwire.OpWritePath:
		for _, idx := range req.Idxs {
			s.cfg.Trace(req.Op, req.Space, idx)
		}
	case bucketwire.OpStats:
	default:
		s.cfg.Trace(req.Op, req.Space, req.Idx)
	}
}

// apply executes one request against storage and builds its response. Read
// results are copied out under the space lock, so concurrent writers on
// other connections can never mutate a response in flight.
func (s *Server) apply(req bucketwire.Request) bucketwire.Response {
	resp := bucketwire.Response{Op: req.Op}
	if req.Op != bucketwire.OpStats {
		if n := s.ops.Add(1); s.cfg.FailEvery > 0 && n%s.cfg.FailEvery == 0 {
			resp.Status = 500
			resp.Err = "bucketd: injected fault"
			return resp
		}
	}
	s.trace(req)
	sp := s.space(req.Space)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	switch req.Op {
	case bucketwire.OpRead, bucketwire.OpPeek:
		if data, ok := sp.buckets[req.Idx]; ok {
			resp.Data = bytes.Clone(data)
		}
	case bucketwire.OpWrite, bucketwire.OpPoke:
		sp.put(req.Idx, req.Data)
	case bucketwire.OpReadPath:
		bufs := make([][]byte, len(req.Idxs))
		for i, idx := range req.Idxs {
			if data, ok := sp.buckets[idx]; ok {
				bufs[i] = bytes.Clone(data)
			}
		}
		resp.Bufs = bufs
	case bucketwire.OpWritePath:
		for i, idx := range req.Idxs {
			sp.put(idx, req.Bufs[i])
		}
	case bucketwire.OpStats:
		resp.Buckets = uint64(len(sp.buckets))
		resp.Bytes = sp.bytes
	default:
		resp.Status = 400
		resp.Err = "bucketd: unknown op"
	}
	return resp
}
