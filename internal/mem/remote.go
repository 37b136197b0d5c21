package mem

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"net"
	"time"

	"freecursive/internal/bucketwire"
	"freecursive/internal/frame"
)

// Remote is a mem.Backend whose buckets live in a bucketd process: the
// paper's untrusted memory as an actual separate failure domain, reached
// over TCP with the bucketwire protocol.
//
// Like every Backend, a Remote serves exactly one single-threaded
// controller. It keeps one long-lived connection — the ordering domain the
// bucketd protocol guarantees read-your-writes on — and redials with
// exponential backoff when the connection drops between operations. All
// faults it surfaces wrap ErrIO: a Remote never invents bucket bytes, so
// the layers above treat its errors as fail-stop I/O faults, distinct from
// tampering (which arrives as perfectly well-formed garbage and is caught
// by decryption and PMMAC).
//
// # Batched and pipelined path I/O
//
// Remote implements PathReader and PathWriter. ReadPath is one round trip
// for the whole path: the decoded response payloads alias the connection's
// receive buffer, which is exactly the PathReader contract (all levels
// simultaneously valid until the next operation, backend-owned). WritePath
// is PIPELINED: the frame is written synchronously but the acknowledgement
// is not awaited — it is drained at the start of the NEXT operation, where
// the server's in-order processing guarantees it arrives before that
// operation's response. A failed or lost acknowledgement latches an error
// that every subsequent operation returns: by then the controller's state
// diverged from remote memory in an unverifiable way, so the only safe
// outcome is fail-stop (the store quarantines the shard).
//
// Hooks run client-side: the TamperFunc API models an adversary between
// controller and memory, and with a real network the natural tap point is
// the wire itself. OnRead sees each bucket as it leaves the wire, OnWrite
// each bucket before it enters; Peek and Poke bypass hooks and counters as
// always, giving tests a direct line to the remote memory at rest.
type Remote struct {
	hooks
	cfg   RemoteConfig
	space uint64

	conn    net.Conn
	br      *bufio.Reader
	enc     bucketwire.Encoder
	dec     bucketwire.Decoder
	readBuf []byte

	nextID  uint64
	pending []uint64 // unacknowledged pipelined WritePath frame IDs
	wbErr   error    // latched lost-write-back fault; sticky once set

	// wireBufs stages WritePath payloads after the write hooks run, so a
	// hook that substitutes slices cannot alias the caller's buffers.
	wireBufs [][]byte

	reads  uint64
	writes uint64
	closed bool
}

// RemoteConfig parameterizes DialRemote.
type RemoteConfig struct {
	// Addr is the bucketd TCP address (host:port).
	Addr string
	// Namespace names this backend's bucket space on the server. Distinct
	// trees MUST use distinct namespaces — the server stores buckets under
	// SpaceID(Namespace), and two controllers sharing a space would corrupt
	// each other. The core layer derives "<store-ns>/shard-i/tree-j" style
	// namespaces automatically.
	Namespace string
	// DialTimeout bounds one TCP connect attempt (default 2s).
	DialTimeout time.Duration
	// DialAttempts is how many connect attempts (with backoff between) an
	// operation makes before failing with ErrIO (default 5).
	DialAttempts int
	// RedialMin/RedialMax bound the exponential backoff between attempts
	// (defaults 50ms and 2s).
	RedialMin time.Duration
	RedialMax time.Duration
	// OpTimeout bounds writing one request frame and waiting for one
	// response frame (default 30s): a blackholed connection, or a server
	// that stopped reading, surfaces as an ErrIO fault instead of wedging
	// the controller forever.
	OpTimeout time.Duration
}

func (c *RemoteConfig) setDefaults() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.DialAttempts <= 0 {
		c.DialAttempts = 5
	}
	if c.RedialMin <= 0 {
		c.RedialMin = 50 * time.Millisecond
	}
	if c.RedialMax <= 0 {
		c.RedialMax = 2 * time.Second
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 30 * time.Second
	}
}

// SpaceID maps a namespace string to its 64-bit wire identifier (FNV-1a).
// Exported so tests and tools can address the space a namespace lands in.
func SpaceID(namespace string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(namespace))
	return h.Sum64()
}

// DialRemote connects to a bucketd server and returns the Backend serving
// cfg.Namespace. The initial dial uses the same attempts/backoff schedule
// as any later redial, so a store pointed at a dead bucketd fails fast and
// loudly at construction.
func DialRemote(cfg RemoteConfig) (*Remote, error) {
	cfg.setDefaults()
	if cfg.Addr == "" {
		//oramlint:allow errwrap construction-time misuse, never crosses the storage boundary at runtime
		return nil, fmt.Errorf("mem: remote backend needs an address")
	}
	r := &Remote{cfg: cfg, space: SpaceID(cfg.Namespace)}
	if err := r.ensureConn(); err != nil {
		return nil, err
	}
	return r, nil
}

// ensureConn makes sure a healthy connection exists, redialing with
// exponential backoff if not. It also surfaces the latched write-back
// fault: once a pipelined write's acknowledgement is lost, every future
// operation fails (the remote tree's state is unverifiable).
func (r *Remote) ensureConn() error {
	if r.closed {
		return fmt.Errorf("mem: remote %s: use after Close: %w", r.cfg.Addr, ErrIO)
	}
	if r.wbErr != nil {
		return r.wbErr
	}
	if r.conn != nil {
		return nil
	}
	backoff := r.cfg.RedialMin
	var lastErr error
	for attempt := 0; attempt < r.cfg.DialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
			if backoff > r.cfg.RedialMax {
				backoff = r.cfg.RedialMax
			}
		}
		conn, err := net.DialTimeout("tcp", r.cfg.Addr, r.cfg.DialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		r.conn = conn
		r.br = bufio.NewReaderSize(conn, 1<<16)
		return nil
	}
	return fmt.Errorf("mem: remote %s unreachable after %d attempts: %w: %w",
		r.cfg.Addr, r.cfg.DialAttempts, ErrIO, lastErr)
}

// dropConn tears the connection down after a fault. If pipelined writes
// were still unacknowledged their outcome is unknowable, so the fault is
// latched: the controller above must fail-stop, not retry into a tree
// whose remote state may have diverged.
func (r *Remote) dropConn(cause error) {
	if r.conn != nil {
		r.conn.Close()
		r.conn = nil
		r.br = nil
	}
	if len(r.pending) > 0 && r.wbErr == nil {
		r.wbErr = fmt.Errorf("mem: remote %s: connection lost with %d write-back(s) unacknowledged: %w: %w",
			r.cfg.Addr, len(r.pending), ErrIO, cause)
	}
	r.pending = r.pending[:0]
}

// send encodes and writes one request frame, returning its ID. The
// deadline covers the write too: a server that stops reading fills the
// socket buffer, and a large WritePath would otherwise block here forever,
// never reaching the ack drain that times out.
func (r *Remote) send(req bucketwire.Request) (uint64, error) {
	r.nextID++
	id := r.nextID
	b, err := r.enc.Request(id, req)
	if err != nil {
		return 0, fmt.Errorf("mem: remote %s: %w: %w", r.cfg.Addr, ErrIO, err)
	}
	r.conn.SetDeadline(time.Now().Add(r.cfg.OpTimeout))
	if _, err := r.conn.Write(b); err != nil {
		err = fmt.Errorf("mem: remote %s: %w: %w", r.cfg.Addr, ErrIO, err)
		r.dropConn(err)
		return 0, err
	}
	return id, nil
}

// recv reads and decodes one response frame. The returned Response's
// payload slices alias r.readBuf: valid until the next recv.
func (r *Remote) recv() (uint64, bucketwire.Response, error) {
	r.conn.SetReadDeadline(time.Now().Add(r.cfg.OpTimeout))
	payload, buf, err := frame.ReadFrame(r.br, r.readBuf)
	if err != nil {
		err = fmt.Errorf("mem: remote %s: %w: %w", r.cfg.Addr, ErrIO, err)
		r.dropConn(err)
		return 0, bucketwire.Response{}, err
	}
	r.readBuf = buf
	id, resp, err := r.dec.Response(payload)
	if err != nil {
		err = fmt.Errorf("mem: remote %s: %w: %w", r.cfg.Addr, ErrIO, err)
		r.dropConn(err)
		return 0, bucketwire.Response{}, err
	}
	return id, resp, nil
}

// drainAcks consumes the responses of all pipelined writes. The server
// answers in order, so these are exactly the next len(pending) frames.
func (r *Remote) drainAcks() error {
	for len(r.pending) > 0 {
		want := r.pending[0]
		r.pending = r.pending[1:]
		id, resp, err := r.recv()
		if err != nil {
			return err
		}
		if id != want || resp.Op != bucketwire.OpWritePath {
			err := fmt.Errorf("mem: remote %s: response %d/op %d, want ack %d: %w",
				r.cfg.Addr, id, resp.Op, want, ErrIO)
			r.dropConn(err)
			return err
		}
		if resp.Status != 0 {
			err := fmt.Errorf("mem: remote %s: write-back failed: server status %d: %s: %w",
				r.cfg.Addr, resp.Status, resp.Err, ErrIO)
			// The write-back did not land; remote state is unverifiable.
			r.wbErr = err
			return err
		}
	}
	r.pending = r.pending[:0]
	return nil
}

// roundTrip performs one synchronous operation: connect if needed, drain
// pipelined write acknowledgements, send, await the response. The returned
// Response's payloads alias the receive buffer (valid until the next
// operation on this backend).
func (r *Remote) roundTrip(req bucketwire.Request) (bucketwire.Response, error) {
	if err := r.ensureConn(); err != nil {
		return bucketwire.Response{}, err
	}
	id, err := r.send(req)
	if err != nil {
		return bucketwire.Response{}, err
	}
	if err := r.drainAcks(); err != nil {
		return bucketwire.Response{}, err
	}
	gotID, resp, err := r.recv()
	if err != nil {
		return bucketwire.Response{}, err
	}
	if gotID != id || resp.Op != req.Op {
		err := fmt.Errorf("mem: remote %s: response %d/op %d, want %d/op %d: %w",
			r.cfg.Addr, gotID, resp.Op, id, req.Op, ErrIO)
		r.dropConn(err)
		return bucketwire.Response{}, err
	}
	if resp.Status != 0 {
		return bucketwire.Response{}, fmt.Errorf("mem: remote %s: server status %d: %s: %w",
			r.cfg.Addr, resp.Status, resp.Err, ErrIO)
	}
	return resp, nil
}

// Read implements Backend. The returned slice aliases the receive buffer:
// valid until the next operation, per the Backend contract.
//
//oram:offhotpath the remote transport is RTT-bound by design; per-op heap work is noise next to a network round trip
func (r *Remote) Read(idx uint64) ([]byte, error) {
	resp, err := r.roundTrip(bucketwire.Request{Op: bucketwire.OpRead, Space: r.space, Idx: idx})
	if err != nil {
		return nil, err
	}
	r.reads++
	data := resp.Data
	if r.onRead != nil {
		data = r.onRead(idx, data)
	}
	return data, nil
}

// Write implements Backend, synchronously: one full round trip per bucket
// (WritePath is the pipelined path the ORAM backends use).
//
//oram:offhotpath the remote transport is RTT-bound by design; per-op heap work is noise next to a network round trip
func (r *Remote) Write(idx uint64, data []byte) error {
	if r.onWrite != nil {
		data = r.onWrite(idx, data)
	}
	if _, err := r.roundTrip(bucketwire.Request{Op: bucketwire.OpWrite, Space: r.space, Idx: idx, Data: data}); err != nil {
		return err
	}
	r.writes++
	return nil
}

// ReadPath implements PathReader: the whole path in one round trip. Every
// out[i] aliases the receive buffer, simultaneously valid until the next
// operation.
//
//oram:offhotpath the remote transport is RTT-bound by design; per-op heap work is noise next to a network round trip
func (r *Remote) ReadPath(idxs []uint64, out [][]byte) error {
	resp, err := r.roundTrip(bucketwire.Request{Op: bucketwire.OpReadPath, Space: r.space, Idxs: idxs})
	if err != nil {
		return err
	}
	if len(resp.Bufs) != len(idxs) {
		err := fmt.Errorf("mem: remote %s: readpath returned %d buckets, want %d: %w",
			r.cfg.Addr, len(resp.Bufs), len(idxs), ErrIO)
		r.dropConn(err)
		return err
	}
	for i, idx := range idxs {
		r.reads++
		data := resp.Bufs[i]
		if r.onRead != nil {
			data = r.onRead(idx, data)
		}
		out[i] = data
	}
	return nil
}

// WritePath implements PathWriter, pipelined: the frame is written now, the
// acknowledgement is drained at the start of the next operation (where the
// server's in-order processing places it before that operation's own
// response). maxPendingAcks bounds how many write-backs may ride unawaited.
//
//oram:offhotpath the remote transport is RTT-bound by design; per-op heap work is noise next to a network round trip
func (r *Remote) WritePath(idxs []uint64, data [][]byte) error {
	if err := r.ensureConn(); err != nil {
		return err
	}
	bufs := data
	if r.onWrite != nil {
		for len(r.wireBufs) < len(data) {
			r.wireBufs = append(r.wireBufs, nil)
		}
		for i, d := range data {
			r.wireBufs[i] = r.onWrite(idxs[i], d)
		}
		bufs = r.wireBufs[:len(data)]
	}
	id, err := r.send(bucketwire.Request{Op: bucketwire.OpWritePath, Space: r.space, Idxs: idxs, Bufs: bufs})
	if err != nil {
		return err
	}
	r.pending = append(r.pending, id)
	r.writes += uint64(len(idxs))
	if len(r.pending) >= maxPendingAcks {
		return r.drainAcks()
	}
	return nil
}

// maxPendingAcks bounds unacknowledged pipelined write-backs. The access
// loop alternates read/write phases, so in practice one ack rides behind
// the next path read; the bound only matters for unusual callers issuing
// many WritePaths back to back.
const maxPendingAcks = 8

// Peek implements Backend: a synchronous read that bypasses hooks and
// counters, returning a mutable copy (the adversary tampers with it and
// Pokes it back).
func (r *Remote) Peek(idx uint64) []byte {
	resp, err := r.roundTrip(bucketwire.Request{Op: bucketwire.OpPeek, Space: r.space, Idx: idx})
	if err != nil {
		return nil
	}
	return bytes.Clone(resp.Data)
}

// Poke implements Backend: a synchronous write (nil deletes) bypassing
// hooks and counters. Faults are dropped — Poke is a test/adversary aid
// with no error path.
func (r *Remote) Poke(idx uint64, data []byte) {
	r.roundTrip(bucketwire.Request{Op: bucketwire.OpPoke, Space: r.space, Idx: idx, Data: data})
}

// Stats implements Backend: reads/writes are counted client-side (they are
// hook-visible operations), bucket count and resident bytes come from the
// server. A fault leaves the footprint fields zero rather than failing —
// Stats has no error path.
func (r *Remote) Stats() Stats {
	st := Stats{Reads: r.reads, Writes: r.writes}
	resp, err := r.roundTrip(bucketwire.Request{Op: bucketwire.OpStats, Space: r.space})
	if err == nil {
		st.Buckets = resp.Buckets
		st.Bytes = resp.Bytes
	}
	return st
}

// Bounce drains any pipelined acknowledgements and drops the connection,
// forcing the next operation to redial: a clean connection loss between
// operations, the disconnect the Flaky wrapper injects. The remote buckets
// are untouched.
//
//oram:offhotpath the remote transport is RTT-bound by design; per-op heap work is noise next to a network round trip
func (r *Remote) Bounce() error {
	if r.conn == nil {
		return nil
	}
	err := r.drainAcks()
	r.dropConn(nil)
	return err
}

// Close implements Backend: drains pipelined acknowledgements (best
// effort — a lost final write-back surfaces here) and closes the
// connection.
func (r *Remote) Close() error {
	if r.closed {
		return nil
	}
	var err error
	if r.conn != nil {
		err = r.drainAcks()
		r.conn.Close()
		r.conn = nil
		r.br = nil
	}
	r.closed = true
	return err
}

var _ Backend = (*Remote)(nil)
