package mem

import (
	"bufio"
	"errors"
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
// # Batched, pipelined and split-phase path I/O
//
// Requests are written by the controller's goroutine; responses are read by
// one receiver goroutine per connection, which hands whole frames over in
// wire order. What the server still owes is one FIFO (owed): an entry per
// frame sent — a pipelined WritePath acknowledgement, an issued path read, a
// Stats answer. Whoever needs the next response consumes the FIFO from its
// head, so acknowledgements are checked on the way to the answer they
// precede and nothing is ever matched out of order.
//
// ReadPath is one round trip for the whole path: IssueReadPath then
// CompleteReadPath (the SplitPathReader pair, which lets a caller keep
// several reads in flight). The decoded response payloads alias a receive
// buffer, which is exactly the PathReader contract (all levels
// simultaneously valid until the next operation, backend-owned). WritePath
// is PIPELINED: the frame is written synchronously but the acknowledgement
// is not awaited — it is consumed on the way to a later response. A failed
// or lost acknowledgement, or a connection lost with a read in flight,
// latches an error that every subsequent operation returns: by then the
// controller's state diverged from remote memory in an unverifiable way, so
// the only safe outcome is fail-stop (the store quarantines the shard).
//
// Paths are the only bucket traffic: Read is a one-bucket path read, Write
// a one-bucket path write that waits for its acknowledgement, and Stats asks
// the server for its byte footprint. These wait for their own answer, which
// queues behind those of any path reads in flight, so they refuse to run
// beside one.
type Remote struct {
	cfg   RemoteConfig
	tm    timing
	space uint64

	conn net.Conn
	rx   *receiver // conn's reader goroutine; nil exactly when conn is
	enc  bucketwire.Encoder
	dec  bucketwire.Decoder

	nextID uint64
	// owed is the ring of responses the server owes for frames already
	// sent, in wire order: n entries starting at head, inFlight of them
	// path reads.
	owed     [owedCap]owedResp
	head, n  int
	inFlight int
	// held is the receive buffer the last delivered response aliases; it
	// goes back to the receiver when the next response is asked for.
	held   []byte
	failed error // latched fault; sticky once set

	// deadline is when the next response frame is due: tm.op after the
	// request that began the wait, or after the previous frame. alarm signals
	// wake when it passes, so a silent server wakes an owner that is waiting
	// on ReadSignal just as it unblocks one waiting in recv.
	deadline time.Time
	alarm    *time.Timer
	wake     chan struct{} // ReadSignal: a frame arrived, the receiver died or the deadline passed

	reads  uint64
	writes uint64
	closed bool
}

// owedResp is one response the server has yet to send.
type owedResp struct {
	id uint64
	op byte // bucketwire.OpWritePath (an acknowledgement), OpReadPath or OpStats
}

const (
	// maxPendingAcks bounds unacknowledged pipelined write-backs. The access
	// loop alternates read/write phases, so in practice an ack rides behind
	// the next path read; the bound only matters for unusual callers issuing
	// many WritePaths back to back.
	maxPendingAcks = 8
	// owedCap sizes the response FIFO: the acknowledgements above plus as
	// many path reads in flight.
	owedCap = 2 * maxPendingAcks
	// rxBufs is how many receive buffers a connection cycles through: one
	// the controller is still reading from plus a few the receiver can fill
	// ahead. Each grows to the largest frame it ever held (one path).
	rxBufs = 4
)

// receiver is one connection's reader goroutine and the two channels it
// shares with the controller. The controller returns spent buffers on free
// and closes it to stop the goroutine; the goroutine sends each frame it
// reads on frames, last of all the error that ended it.
type receiver struct {
	frames chan rxFrame  // capacity rxBufs: a buffer per queued frame, so the send never blocks
	free   chan []byte   // capacity rxBufs: every buffer fits, so returning one never blocks
	done   chan struct{} // closed when the goroutine has returned
}

type rxFrame struct {
	payload []byte
	err     error
}

func startReceiver(conn net.Conn, wake chan<- struct{}) *receiver {
	rx := &receiver{
		frames: make(chan rxFrame, rxBufs),
		free:   make(chan []byte, rxBufs),
		done:   make(chan struct{}),
	}
	for i := 0; i < rxBufs; i++ {
		rx.free <- nil
	}
	go rx.run(bufio.NewReaderSize(conn, 1<<16), wake)
	return rx
}

// run reads frames until the connection fails or the controller closes
// free. It has no deadline of its own: an idle connection is healthy, and
// the controller bounds its waits for a particular frame.
func (rx *receiver) run(br *bufio.Reader, wake chan<- struct{}) {
	defer close(rx.done)
	for buf := range rx.free {
		payload, _, err := frame.ReadFrame(br, buf)
		rx.frames <- rxFrame{payload: payload, err: err}
		signal(wake)
		if err != nil {
			return
		}
	}
}

// signal leaves a wake-up on ch unless one is already waiting to be seen.
func signal(ch chan<- struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
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
}

// The wire schedule every Remote dials and redials by; tests shorten it
// through export_test.go.
const (
	// dialTimeout bounds one TCP connect attempt.
	dialTimeout = 2 * time.Second
	// dialAttempts is how many connect attempts (with backoff between) an
	// operation makes before failing with ErrIO.
	dialAttempts = 5
	// redialMin and redialMax bound the exponential backoff between
	// attempts.
	redialMin = 50 * time.Millisecond
	redialMax = 2 * time.Second
)

// DefaultOpTimeout bounds writing one request frame and waiting for one
// response frame: a blackholed connection, or a server that stopped
// reading, surfaces as an ErrIO fault instead of wedging the controller
// forever. It is the one part of the wire schedule that is a variable, and
// the one test hook reachable from another package: tests of the layers
// above (internal/store's TestWindowFaultSilentServer), which dial through
// core.Build, shorten it to wait out a silent server in milliseconds.
// Nothing else assigns it.
var DefaultOpTimeout = 30 * time.Second

// timing is one Remote's wire schedule, fixed at dial.
type timing struct {
	dial     time.Duration // one connect attempt
	attempts int           // connect attempts per (re)dial
	backoff  time.Duration // first pause between attempts, doubling to redialMax
	op       time.Duration // one request write, or the wait for one response
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
	return dialRemote(cfg, timing{dial: dialTimeout, attempts: dialAttempts, backoff: redialMin, op: DefaultOpTimeout})
}

func dialRemote(cfg RemoteConfig, tm timing) (*Remote, error) {
	if cfg.Addr == "" {
		//oramlint:allow errwrap construction-time misuse, never crosses the storage boundary at runtime
		return nil, fmt.Errorf("mem: remote backend needs an address")
	}
	r := &Remote{
		cfg:   cfg,
		tm:    tm,
		space: SpaceID(cfg.Namespace),
		wake:  make(chan struct{}, 1),
	}
	r.alarm = time.AfterFunc(tm.op, func() { signal(r.wake) })
	r.alarm.Stop()
	if err := r.ensureConn(); err != nil {
		return nil, err
	}
	return r, nil
}

// errClientClosed is the cause recorded when Bounce or Close drops a
// connection that still owed a path read.
var errClientClosed = errors.New("connection closed by the client")

// ioErr wraps cause as this remote's I/O fault.
func (r *Remote) ioErr(cause error) error {
	return fmt.Errorf("mem: remote %s: %w: %w", r.cfg.Addr, ErrIO, cause)
}

// ensureConn makes sure a healthy connection exists, redialing with
// exponential backoff if not. It also surfaces the latched fault: once a
// response the controller depends on is lost, every future operation fails
// (the remote tree's state is unverifiable).
func (r *Remote) ensureConn() error {
	if r.closed {
		return fmt.Errorf("mem: remote %s: use after Close: %w", r.cfg.Addr, ErrIO)
	}
	if r.failed != nil {
		return r.failed
	}
	if r.conn != nil {
		return nil
	}
	backoff := r.tm.backoff
	var lastErr error
	for attempt := 0; attempt < r.tm.attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff = min(2*backoff, redialMax)
		}
		conn, err := net.DialTimeout("tcp", r.cfg.Addr, r.tm.dial)
		if err != nil {
			lastErr = err
			continue
		}
		r.conn = conn
		r.rx = startReceiver(conn, r.wake)
		return nil
	}
	return fmt.Errorf("mem: remote %s unreachable after %d attempts: %w: %w",
		r.cfg.Addr, r.tm.attempts, ErrIO, lastErr)
}

// dropConn tears the connection down after a fault and waits for its
// receiver to exit. If responses were still owed their outcome is
// unknowable — a write-back may or may not have landed, an issued read's
// access cannot be replayed — so the fault is latched: the controller above
// must fail-stop, not retry into a tree whose remote state may have
// diverged.
func (r *Remote) dropConn(cause error) {
	r.alarm.Stop()
	if r.conn != nil {
		r.conn.Close()
		close(r.rx.free)
		<-r.rx.done
		r.conn, r.rx = nil, nil
	}
	if r.n > 0 && r.failed == nil {
		r.failed = fmt.Errorf("mem: remote %s: connection lost with %d write-back(s) unacknowledged and %d path read(s) unanswered: %w: %w",
			r.cfg.Addr, r.n-r.inFlight, r.inFlight, ErrIO, cause)
	}
	r.head, r.n, r.inFlight = 0, 0, 0
	r.held = nil
}

// send encodes and writes one request frame and records, on owed, the
// response the server owes for it. The deadline covers the write: a server
// that stops reading fills the socket buffer, and a large WritePath would
// otherwise block here forever, never reaching a wait that times out.
func (r *Remote) send(req bucketwire.Request) error {
	r.nextID++
	b, err := r.enc.Request(r.nextID, req)
	if err != nil {
		return r.ioErr(err)
	}
	r.conn.SetWriteDeadline(time.Now().Add(r.tm.op))
	if _, err := r.conn.Write(b); err != nil {
		err = r.ioErr(err)
		r.dropConn(err)
		return err
	}
	if r.n == 0 {
		r.expect() // nothing older is awaited: the wait for a frame starts here
	}
	r.owed[(r.head+r.n)%owedCap] = owedResp{id: r.nextID, op: req.Op}
	r.n++
	if req.Op == bucketwire.OpReadPath {
		r.inFlight++
	}
	return nil
}

// expect restarts the wait for the next response frame.
func (r *Remote) expect() {
	r.deadline = time.Now().Add(r.tm.op)
	r.alarm.Reset(r.tm.op)
}

// overdue reports whether the next response frame is past its deadline.
func (r *Remote) overdue() bool { return !time.Now().Before(r.deadline) }

// recv returns the next response frame in wire order; the previous one's
// payloads die here. With wait it blocks until the frame's deadline; without,
// ok is false when nothing has arrived yet. A frame that has arrived is taken
// however late the caller comes for it.
func (r *Remote) recv(wait bool) (payload []byte, ok bool, err error) {
	if r.held != nil {
		r.rx.free <- r.held
		r.held = nil
	}
	var f rxFrame
	for arrived := false; !arrived; {
		select {
		case f = <-r.rx.frames:
			arrived = true
		default:
			if !wait {
				return nil, false, nil
			}
			if r.overdue() {
				err := fmt.Errorf("mem: remote %s: no response within %v: %w", r.cfg.Addr, r.tm.op, ErrIO)
				r.dropConn(err)
				return nil, false, err
			}
			<-r.wake // a frame, or the alarm at the deadline
		}
	}
	if f.err != nil {
		err := r.ioErr(f.err)
		r.dropConn(err)
		return nil, false, err
	}
	r.expect()
	r.held = f.payload
	return f.payload, true, nil
}

// decode parses a response frame and checks it answers request id of kind
// op; anything else means the stream cannot be trusted, and the connection
// is dropped.
func (r *Remote) decode(payload []byte, id uint64, op byte) (bucketwire.Response, error) {
	gotID, resp, err := r.dec.Response(payload)
	switch {
	case err != nil:
		err = r.ioErr(err)
	case gotID != id || resp.Op != op:
		err = fmt.Errorf("mem: remote %s: response %d/op %d, want %d/op %d: %w",
			r.cfg.Addr, gotID, resp.Op, id, op, ErrIO)
	default:
		return resp, nil
	}
	r.dropConn(err)
	return bucketwire.Response{}, err
}

// response consumes the answer to the request at the head of owed: takes
// the next frame, pops the entry and checks the two belong together. ok is
// false only without wait, when the frame has not arrived.
func (r *Remote) response(wait bool) (resp bucketwire.Response, ok bool, err error) {
	payload, ok, err := r.recv(wait)
	if !ok {
		return resp, false, err
	}
	want := r.owed[r.head]
	if resp, err = r.decode(payload, want.id, want.op); err != nil {
		return resp, false, err
	}
	r.head = (r.head + 1) % owedCap
	r.n--
	if want.op == bucketwire.OpReadPath {
		r.inFlight--
	}
	return resp, true, nil
}

// drainAcks consumes the write acknowledgements at the head of owed, up to
// the first path read: all of them with wait, those already arrived without.
func (r *Remote) drainAcks(wait bool) error {
	for r.n > 0 && r.owed[r.head].op == bucketwire.OpWritePath {
		resp, ok, err := r.response(wait)
		if !ok {
			return err
		}
		if resp.Status != 0 {
			// The write-back did not land; remote state is unverifiable.
			r.failed = fmt.Errorf("mem: remote %s: write-back failed: server status %d: %s: %w",
				r.cfg.Addr, resp.Status, resp.Err, ErrIO)
			return r.failed
		}
	}
	return nil
}

// answer consumes the write acknowledgements owed ahead of the next path
// read or stats answer, then that answer; the caller knows one is owed. A
// nonzero status is an error that does not latch: the stream is still in
// step, and the server applied nothing.
func (r *Remote) answer() (bucketwire.Response, error) {
	if err := r.drainAcks(true); err != nil {
		return bucketwire.Response{}, err
	}
	resp, _, err := r.response(true)
	if err == nil && resp.Status != 0 {
		err = fmt.Errorf("mem: remote %s: server status %d: %s: %w", r.cfg.Addr, resp.Status, resp.Err, ErrIO)
	}
	return resp, err
}

// idle readies the connection for an operation that waits for its own
// answer (see the type comment), refusing if a path read is in flight.
func (r *Remote) idle() error {
	if err := r.ensureConn(); err != nil {
		return err
	}
	if r.inFlight > 0 {
		return fmt.Errorf("mem: remote %s: synchronous operation with %d path read(s) in flight: %w",
			r.cfg.Addr, r.inFlight, ErrIO)
	}
	return nil
}

// Read implements Backend: a one-bucket path read. The returned slice
// aliases the receive buffer: valid until the next operation, per the
// Backend contract.
//
//oram:offhotpath the remote transport is RTT-bound by design; per-op heap work is noise next to a network round trip
func (r *Remote) Read(idx uint64) ([]byte, error) {
	out := make([][]byte, 1)
	if err := r.idle(); err != nil {
		return nil, err
	}
	if err := r.ReadPath([]uint64{idx}, out); err != nil {
		return nil, err
	}
	return out[0], nil
}

// Write implements Backend: a one-bucket path write that, unlike WritePath,
// waits for its acknowledgement. A failed one latches, as for WritePath.
//
//oram:offhotpath the remote transport is RTT-bound by design; per-op heap work is noise next to a network round trip
func (r *Remote) Write(idx uint64, data []byte) error {
	if err := r.idle(); err != nil {
		return err
	}
	if err := r.WritePath([]uint64{idx}, [][]byte{data}); err != nil {
		return err
	}
	return r.drainAcks(true)
}

// ReadPath implements PathReader: the whole path in one round trip, issued
// and completed back to back. Every out[i] aliases the receive buffer,
// simultaneously valid until the next operation.
//
//oram:offhotpath the remote transport is RTT-bound by design; per-op heap work is noise next to a network round trip
func (r *Remote) ReadPath(idxs []uint64, out [][]byte) error {
	if err := r.IssueReadPath(idxs); err != nil {
		return err
	}
	return r.CompleteReadPath(idxs, out)
}

// IssueReadPath implements SplitPathReader: the readpath frame leaves now.
//
//oram:offhotpath the remote transport is RTT-bound by design; per-op heap work is noise next to a network round trip
func (r *Remote) IssueReadPath(idxs []uint64) error {
	if err := r.ensureConn(); err != nil {
		return err
	}
	if r.inFlight == owedCap-maxPendingAcks {
		return fmt.Errorf("mem: remote %s: %d path reads already in flight: %w", r.cfg.Addr, r.inFlight, ErrIO)
	}
	return r.send(bucketwire.Request{Op: bucketwire.OpReadPath, Space: r.space, Idxs: idxs})
}

// CompleteReadPath implements SplitPathReader: it consumes the write
// acknowledgements that precede the oldest issued read on the wire, then
// the read's own response.
//
//oram:offhotpath the remote transport is RTT-bound by design; per-op heap work is noise next to a network round trip
func (r *Remote) CompleteReadPath(idxs []uint64, out [][]byte) error {
	if err := r.ensureConn(); err != nil {
		return err
	}
	if r.inFlight == 0 {
		return fmt.Errorf("mem: remote %s: no path read in flight to complete: %w", r.cfg.Addr, ErrIO)
	}
	resp, err := r.answer()
	if err != nil {
		return err
	}
	if len(resp.Bufs) != len(idxs) {
		err := fmt.Errorf("mem: remote %s: readpath returned %d buckets, want %d: %w",
			r.cfg.Addr, len(resp.Bufs), len(idxs), ErrIO)
		r.dropConn(err)
		return err
	}
	copy(out, resp.Bufs)
	r.reads += uint64(len(idxs))
	return nil
}

// ReadReady implements SplitPathReader. It consumes whatever write
// acknowledgements have arrived ahead of the oldest issued read and then
// looks for that read's frame (only this goroutine takes frames off the
// receiver, so one seen queued stays queued). A fault counts as ready, and
// so does a response past its deadline: CompleteReadPath then fails without
// waiting.
func (r *Remote) ReadReady() bool {
	if r.failed != nil || r.conn == nil || r.drainAcks(false) != nil {
		return true
	}
	if r.n == 0 {
		return false
	}
	if len(r.rx.frames) > 0 {
		return r.owed[r.head].op == bucketwire.OpReadPath
	}
	return r.overdue()
}

// ReadSignal implements SplitPathReader.
func (r *Remote) ReadSignal() <-chan struct{} { return r.wake }

// WritePath implements PathWriter, pipelined: the frame is written now, the
// acknowledgement is consumed on the way to a later response (the server's
// in-order processing places it before that response). maxPendingAcks
// bounds how many write-backs may ride unawaited.
//
//oram:offhotpath the remote transport is RTT-bound by design; per-op heap work is noise next to a network round trip
func (r *Remote) WritePath(idxs []uint64, data [][]byte) error {
	if err := r.ensureConn(); err != nil {
		return err
	}
	if r.n-r.inFlight >= maxPendingAcks {
		// Only reachable with reads in flight ahead of that many writes,
		// which no in-order caller produces.
		return fmt.Errorf("mem: remote %s: %d write-backs unacknowledged behind a path read in flight: %w",
			r.cfg.Addr, r.n-r.inFlight, ErrIO)
	}
	if err := r.send(bucketwire.Request{Op: bucketwire.OpWritePath, Space: r.space, Idxs: idxs, Bufs: data}); err != nil {
		return err
	}
	r.writes += uint64(len(idxs))
	if r.n-r.inFlight >= maxPendingAcks {
		return r.drainAcks(true)
	}
	return nil
}

// Stats implements Backend: reads/writes are counted client-side, resident
// bytes come from the server. A fault
// leaves Bytes zero rather than failing — Stats has no error path.
func (r *Remote) Stats() Stats {
	st := Stats{Reads: r.reads, Writes: r.writes}
	if r.idle() != nil || r.send(bucketwire.Request{Op: bucketwire.OpStats, Space: r.space}) != nil {
		return st
	}
	if resp, err := r.answer(); err == nil {
		st.Bytes = resp.Bytes
	}
	return st
}

// settle consumes the pipelined write acknowledgements and drops the
// connection, reporting what turns out lost only now: a write-back whose
// acknowledgement fails, a path read still in flight (which latches). A
// fault latched earlier has already been reported.
func (r *Remote) settle() error {
	if r.conn == nil {
		return nil
	}
	known := r.failed
	var err error
	if known == nil {
		err = r.drainAcks(true)
	}
	r.dropConn(errClientClosed)
	if err == nil && r.failed != known {
		err = r.failed
	}
	return err
}

// Bounce drains any pipelined acknowledgements and drops the connection,
// forcing the next operation to redial: a clean connection loss between
// operations, the disconnect a test's fault schedule injects. The remote
// buckets are untouched.
//
//oram:offhotpath the remote transport is RTT-bound by design; per-op heap work is noise next to a network round trip
func (r *Remote) Bounce() error { return r.settle() }

// Close implements Backend: drains pipelined acknowledgements (best
// effort — a lost final write-back surfaces here), closes the connection
// and waits for its receiver goroutine to exit.
func (r *Remote) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	return r.settle()
}

var (
	_ Backend         = (*Remote)(nil)
	_ SplitPathReader = (*Remote)(nil)
)
