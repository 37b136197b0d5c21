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
// The connections are frame.Server's, the same kernel internal/frameserver
// runs on; this package is the handler it runs per connection. On any
// malformed frame the connection is dropped: a framing error means the
// stream position cannot be trusted (see bucketwire).
package bucketd

import (
	"bytes"
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
	// Trace, when set, is called for every bucket index a readpath or
	// writepath touches, in wire order, before the operation is applied;
	// a single bucket travels as a one-bucket path, so paths are all it
	// sees. It runs on connection goroutines and must be safe for
	// concurrent use. This is the adversary's wiretap: what an
	// honest-but-curious bucketd observes.
	Trace func(op byte, space, idx uint64)
	// Logf, when set, receives connection-level events (accepts, drops).
	Logf func(format string, args ...any)
}

// space is one bucket namespace: a sparse map of buckets, behind a mutex
// because distinct client connections may share a space (a controller
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
// with Close (both frame.Server's). Close drops every live connection and
// waits for their goroutines; stored buckets are kept, but the usual
// lifecycle is one Serve, one Close.
type Server struct {
	*frame.Server[bucketwire.Response]
	cfg Config

	mu     sync.Mutex
	spaces map[uint64]*space

	ops atomic.Uint64 // data operations served (drives FailEvery)
}

// New builds a Server.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg, spaces: make(map[uint64]*space)}
	s.Server = frame.NewServer(func(c *frame.Conn[bucketwire.Response]) frame.Handler[bucketwire.Response] {
		return &conn{s: s, c: c}
	}, cfg.Logf)
	return s
}

// FramesServed returns the total frames applied, for tests and monitoring.
func (s *Server) FramesServed() uint64 { return s.Stats().Frames }

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

// conn is the handler of one connection: frames are applied in arrival
// order on the read loop, and each response is queued due RTT after its
// frame arrived, so later frames are applied while it waits.
type conn struct {
	s   *Server
	c   *frame.Conn[bucketwire.Response]
	dec bucketwire.Decoder
	enc bucketwire.Encoder
}

// Frame implements frame.Handler.
func (c *conn) Frame(payload []byte, arrived time.Time) error {
	id, req, err := c.dec.Request(payload)
	if err != nil {
		return err
	}
	c.c.Send(id, c.s.apply(req), arrived.Add(c.s.cfg.RTT))
	return nil
}

// Encode implements frame.Handler.
func (c *conn) Encode(id uint64, r bucketwire.Response) ([]byte, error) {
	return c.enc.Response(id, r)
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
		if s.cfg.Trace != nil {
			for _, idx := range req.Idxs {
				s.cfg.Trace(req.Op, req.Space, idx)
			}
		}
	}
	sp := s.space(req.Space)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	switch req.Op {
	case bucketwire.OpReadPath:
		resp.Bufs = make([][]byte, len(req.Idxs))
		for i, idx := range req.Idxs {
			if data, ok := sp.buckets[idx]; ok {
				resp.Bufs[i] = bytes.Clone(data)
			}
		}
	case bucketwire.OpWritePath:
		for i, idx := range req.Idxs {
			sp.put(idx, req.Bufs[i])
		}
	case bucketwire.OpStats:
		resp.Bytes = sp.bytes
	}
	return resp
}
