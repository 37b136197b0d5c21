package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"freecursive/internal/bucketd"
	"freecursive/internal/bucketwire"
)

// startBucketd runs an in-process bucketd on an ephemeral port and returns
// its address.
func startBucketd(t *testing.T, cfg bucketd.Config) (string, *bucketd.Server) {
	t.Helper()
	srv := bucketd.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), srv
}

func dialTest(t *testing.T, addr, namespace string) *Remote {
	t.Helper()
	r, err := DialRemoteTimed(RemoteConfig{Addr: addr, Namespace: namespace}, Timing{Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestRemoteRoundTrip exercises the full Backend contract over a live
// bucketd: data round trips, nil-for-absent, deletion by a nil Write, and
// Stats.
func TestRemoteRoundTrip(t *testing.T) {
	addr, _ := startBucketd(t, bucketd.Config{})
	r := dialTest(t, addr, "t/roundtrip")

	if got, err := r.Read(5); err != nil || got != nil {
		t.Fatalf("fresh read: %q, %v", got, err)
	}
	if err := r.Write(5, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := r.Read(5)
	if err != nil || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("read back: %q, %v", got, err)
	}

	if err := r.Write(6, []byte("planted")); err != nil {
		t.Fatal(err)
	}
	if got, err := r.Read(6); err != nil || !bytes.Equal(got, []byte("planted")) {
		t.Fatalf("read of planted bucket: %q, %v", got, err)
	}
	if st := r.Stats(); st.Reads != 3 || st.Writes != 2 {
		t.Errorf("counters %+v, want 3 reads / 2 writes", st)
	}

	// A nil Write deletes; the server's footprint reflects it.
	if err := r.Write(6, nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.Read(6); got != nil {
		t.Fatalf("deleted bucket reads as %q", got)
	}
	if st := r.Stats(); st.Bytes != 5 {
		t.Errorf("server footprint %+v, want 5 bytes", st)
	}
}

// TestRemoteNamespaces pins that distinct namespaces are disjoint bucket
// spaces on a shared server and identical namespaces share one.
func TestRemoteNamespaces(t *testing.T) {
	addr, _ := startBucketd(t, bucketd.Config{})
	a := dialTest(t, addr, "t/ns-a")
	b := dialTest(t, addr, "t/ns-b")
	a2 := dialTest(t, addr, "t/ns-a")

	if err := a.Write(1, []byte("A")); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.Read(1); got != nil {
		t.Fatalf("namespace leak: %q", got)
	}
	if got, _ := a2.Read(1); !bytes.Equal(got, []byte("A")) {
		t.Fatalf("same namespace, different view: %q", got)
	}
}

// TestRemotePathOps pins the batched path operations: ReadPath's buffers
// are simultaneously valid (the PathReader contract), counters advance per
// bucket, and a pipelined WritePath lands before the next read.
func TestRemotePathOps(t *testing.T) {
	addr, _ := startBucketd(t, bucketd.Config{})
	r := dialTest(t, addr, "t/path")

	idxs := []uint64{0, 1, 2, 3}
	bufs := [][]byte{[]byte("root"), nil, []byte("mid"), []byte("leaf")}
	if err := r.WritePath(idxs, bufs); err != nil {
		t.Fatal(err)
	}

	// The write-back is pipelined; the subsequent ReadPath must observe it
	// (the connection is the ordering domain).
	out := make([][]byte, 4)
	if err := r.ReadPath(idxs, out); err != nil {
		t.Fatal(err)
	}
	for i := range bufs {
		if (out[i] == nil) != (bufs[i] == nil) || !bytes.Equal(out[i], bufs[i]) {
			t.Errorf("bucket %d: got %q, want %q", idxs[i], out[i], bufs[i])
		}
	}
	if st := r.Stats(); st.Reads != 4 || st.Writes != 4 {
		t.Errorf("counters %+v, want 4 reads / 4 writes", st)
	}
}

// TestRemoteBounceRedial pins connection-loss recovery: after a clean
// Bounce the next operation transparently redials and the buckets are
// still there (the server, not the connection, owns the data).
func TestRemoteBounceRedial(t *testing.T) {
	addr, _ := startBucketd(t, bucketd.Config{})
	r := dialTest(t, addr, "t/bounce")
	if err := r.Write(9, []byte("sticky")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := r.Bounce(); err != nil {
			t.Fatalf("bounce %d: %v", i, err)
		}
		got, err := r.Read(9)
		if err != nil || !bytes.Equal(got, []byte("sticky")) {
			t.Fatalf("after bounce %d: %q, %v", i, got, err)
		}
	}
}

// TestRemoteDialFailure pins that an unreachable server fails fast with an
// error wrapping ErrIO, both at construction and after the server dies.
func TestRemoteDialFailure(t *testing.T) {
	// A listener we immediately close gives us an address nobody serves.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	_, err = DialRemoteTimed(RemoteConfig{Addr: addr, Namespace: "t/dead"},
		Timing{Attempts: 2, Backoff: time.Millisecond})
	if !errors.Is(err, ErrIO) {
		t.Fatalf("dial to dead server: %v, want ErrIO", err)
	}
}

// TestRemoteServerShutdownMidUse pins that losing the server surfaces
// ErrIO (not a hang, not a panic) on the next operation.
func TestRemoteServerShutdownMidUse(t *testing.T) {
	addr, srv := startBucketd(t, bucketd.Config{})
	r, err := DialRemoteTimed(RemoteConfig{Addr: addr, Namespace: "t/shutdown"},
		Timing{Attempts: 2, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Write(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := r.Read(1); !errors.Is(err, ErrIO) {
		t.Fatalf("read after server death: %v, want ErrIO", err)
	}
}

// TestRemoteInjectedFault pins the server-side fault path for reads: a
// status-500 answer surfaces as ErrIO, is NOT latched (the stream stays in
// sync, and a refused read changed nothing), and the connection keeps
// serving. A refused write does latch (TestRemoteWriteFaultLatches).
func TestRemoteInjectedFault(t *testing.T) {
	addr, _ := startBucketd(t, bucketd.Config{FailEvery: 3})
	r := dialTest(t, addr, "t/fault")
	var failures int
	for op := 1; op <= 9; op++ {
		_, err := r.Read(uint64(op))
		if err != nil {
			if !errors.Is(err, ErrIO) {
				t.Fatalf("op %d: %v, want ErrIO", op, err)
			}
			failures++
		}
	}
	if failures != 3 {
		t.Fatalf("%d failures over 9 ops with FailEvery=3", failures)
	}
}

// TestRemotePipelinedWriteFaultLatches pins the deferred-acknowledgement
// contract: a WritePath whose ack reports failure surfaces from the NEXT
// operation as ErrIO, and the fault latches — once remote state is
// unverifiable every subsequent operation must fail (fail-stop).
func TestRemotePipelinedWriteFaultLatches(t *testing.T) {
	addr, _ := startBucketd(t, bucketd.Config{FailEvery: 1}) // every data op fails
	r := dialTest(t, addr, "t/wb-fault")

	// The pipelined send itself succeeds locally…
	if err := r.WritePath([]uint64{0, 1}, [][]byte{[]byte("a"), []byte("b")}); err != nil {
		t.Fatalf("pipelined send failed synchronously: %v", err)
	}
	// …the failure surfaces from the next op, wrapping ErrIO.
	_, err := r.Read(0)
	if !errors.Is(err, ErrIO) || !strings.Contains(err.Error(), "write-back") {
		t.Fatalf("deferred fault: %v, want ErrIO mentioning write-back", err)
	}
	// And it latches: the remote tree diverged, so no recovery.
	if _, err := r.Read(0); !errors.Is(err, ErrIO) {
		t.Fatalf("latched fault did not stick: %v", err)
	}
	if err := r.Write(0, []byte("z")); !errors.Is(err, ErrIO) {
		t.Fatalf("latched fault did not stick for writes: %v", err)
	}
}

// TestRemoteWriteFaultLatches pins that a per-bucket Write is a one-bucket
// path write with the same fail-stop contract as WritePath, only awaited: a
// refused acknowledgement fails the Write itself with ErrIO, and the fault
// latches for every later operation.
func TestRemoteWriteFaultLatches(t *testing.T) {
	addr, _ := startBucketd(t, bucketd.Config{FailEvery: 2})
	r := dialTest(t, addr, "t/write-fault")
	if err := r.Write(1, []byte("a")); err != nil {
		t.Fatalf("first write: %v", err)
	}
	err := r.Write(2, []byte("b")) // the second data op: refused
	if !errors.Is(err, ErrIO) || !strings.Contains(err.Error(), "write-back") {
		t.Fatalf("refused write: %v, want ErrIO mentioning write-back", err)
	}
	if _, err := r.Read(1); !errors.Is(err, ErrIO) {
		t.Fatalf("read after a refused write: %v, want the latched fault", err)
	}
	if err := r.Write(3, []byte("c")); !errors.Is(err, ErrIO) {
		t.Fatalf("write after a refused write: %v, want the latched fault", err)
	}
}

// TestRemoteConnLossWithPendingWriteLatches pins the harsher variant: the
// connection dies with an unacknowledged pipelined write in flight. The
// outcome of that write is unknowable, so the Remote must latch.
func TestRemoteConnLossWithPendingWriteLatches(t *testing.T) {
	addr, srv := startBucketd(t, bucketd.Config{RTT: 50 * time.Millisecond})
	r, err := DialRemoteTimed(RemoteConfig{Addr: addr, Namespace: "t/wb-loss"},
		Timing{Attempts: 1, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// The ack is delayed 50ms by the injected RTT; kill the server before
	// it arrives.
	if err := r.WritePath([]uint64{0}, [][]byte{[]byte("doomed")}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := r.Read(0); !errors.Is(err, ErrIO) {
		t.Fatalf("read after conn loss with pending write: %v, want ErrIO", err)
	}
	// Latched: even though a new bucketd could be dialed, the lost ack
	// makes the tree unverifiable.
	if _, err := r.Read(0); !errors.Is(err, ErrIO) {
		t.Fatalf("fault did not latch: %v", err)
	}
}

// TestRemoteWriteDeadline pins that a server which accepts and then stops
// reading cannot wedge the controller. Once the socket buffers fill, the
// frame write itself blocks — before the ack drain, which always had a
// deadline, is ever reached — so the op timeout must bound it too: the blocked
// WritePath fails with ErrIO and, with an earlier write-back still
// unacknowledged, the fault latches.
func TestRemoteWriteDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	held := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			held <- c // kept open, never read
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		select {
		case c := <-held:
			c.Close()
		default:
		}
	})

	r, err := DialRemoteTimed(RemoteConfig{Addr: ln.Addr().String(), Namespace: "t/wedge"},
		Timing{Attempts: 1, Op: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if err := r.WritePath([]uint64{0}, [][]byte{[]byte("small")}); err != nil {
		t.Fatalf("first pipelined write-back: %v", err)
	}
	// Stay below maxPendingAcks so no ack drain runs: 48 MiB into a socket
	// nobody reads can only fail in the frame write.
	big := make([]byte, bucketwire.MaxBucketBytes)
	idxs, data := []uint64{1, 2}, [][]byte{big, big}
	for i := 0; i < maxPendingAcks-2 && err == nil; i++ {
		err = r.WritePath(idxs, data)
	}
	if !errors.Is(err, ErrIO) {
		t.Fatalf("WritePath into a stalled server: %v, want ErrIO", err)
	}
	if _, err := r.Read(0); !errors.Is(err, ErrIO) || !strings.Contains(err.Error(), "unacknowledged") {
		t.Fatalf("after the stalled write: %v, want the latched unacknowledged-write-back fault", err)
	}
}

// TestRemotePipelineOverlapsRTT pins the performance property the batched
// protocol exists for: under injected RTT, a path access (one ReadPath +
// one pipelined WritePath) costs ~1 RTT, not ~2·buckets·RTT.
func TestRemotePipelineOverlapsRTT(t *testing.T) {
	const rtt = 20 * time.Millisecond
	addr, _ := startBucketd(t, bucketd.Config{RTT: rtt})
	r := dialTest(t, addr, "t/rtt")

	idxs := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	bufs := make([][]byte, len(idxs))
	for i := range bufs {
		bufs[i] = []byte("bucket")
	}
	out := make([][]byte, len(idxs))

	start := time.Now()
	const rounds = 3
	for i := 0; i < rounds; i++ {
		if err := r.ReadPath(idxs, out); err != nil {
			t.Fatal(err)
		}
		if err := r.WritePath(idxs, bufs); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	// Serial per-bucket I/O would cost 2*8 RTTs per round = 960ms; batched
	// with a pipelined write-back costs ~2 RTTs per round = 120ms. Allow
	// generous slack for scheduling: anything under half the serial cost
	// proves batching.
	serial := time.Duration(rounds) * 2 * time.Duration(len(idxs)) * rtt
	if elapsed > serial/2 {
		t.Errorf("batched path I/O took %v; serial estimate is %v — batching broken?", elapsed, serial)
	}
}

// quietBucketd is a loopback stand-in for bucketd that answers readpath and
// writepath frames from pre-encoded templates and allocates nothing per
// frame, so an allocation count taken around it is the client's alone (the
// real server clones every bucket it serves). Reads return width buckets of
// 64 bytes each.
func quietBucketd(t *testing.T, width int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var enc bucketwire.Encoder
	bufs := make([][]byte, width)
	for i := range bufs {
		bufs[i] = bytes.Repeat([]byte{byte(i)}, 64)
	}
	template := func(resp bucketwire.Response) []byte {
		b, err := enc.Response(0, resp)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Clone(b)
	}
	read := template(bucketwire.Response{Op: bucketwire.OpReadPath, Bufs: bufs})
	ack := template(bucketwire.Response{Op: bucketwire.OpWritePath})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Frame: 4-byte length, then magic(4) version kind reserved(2),
		// the 8-byte id, the op byte. The id is echoed into the template.
		const idAt, opAt = 8, 16
		buf := make([]byte, 1<<16)
		for {
			if _, err := io.ReadFull(conn, buf[:4]); err != nil {
				return
			}
			n := binary.LittleEndian.Uint32(buf[:4])
			if _, err := io.ReadFull(conn, buf[:n]); err != nil {
				return
			}
			out := ack
			if buf[opAt] == bucketwire.OpReadPath {
				out = read
			}
			copy(out[4+idAt:], buf[idAt:idAt+8])
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestRemoteSteadyStateAllocs pins the response FIFO as a fixed ring: a
// steady stream of path accesses — read then pipelined write-back, serial or
// with a full window of reads in flight — allocates nothing on the client,
// receiver goroutine included. (The parent's slice-backed ack queue lost a
// slot of capacity per drained ack and so reallocated on every WritePath.)
func TestRemoteSteadyStateAllocs(t *testing.T) {
	const width = 11
	r := dialTest(t, quietBucketd(t, width), "t/allocs")
	idxs := make([]uint64, width)
	data := make([][]byte, width)
	for i := range idxs {
		idxs[i] = uint64(i)
		data[i] = bytes.Repeat([]byte{0xA5}, 64)
	}
	out := make([][]byte, width)
	serial := func() {
		if err := r.ReadPath(idxs, out); err != nil {
			t.Fatal(err)
		}
		if err := r.WritePath(idxs, data); err != nil {
			t.Fatal(err)
		}
	}
	const window = 4
	windowed := func() {
		for i := 0; i < window; i++ {
			if err := r.IssueReadPath(idxs); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < window; i++ {
			for !r.ReadReady() {
				<-r.ReadSignal()
			}
			if err := r.CompleteReadPath(idxs, out); err != nil {
				t.Fatal(err)
			}
			if err := r.WritePath(idxs, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, pair := range map[string]func(){"serial": serial, "windowed": windowed} {
		for i := 0; i < 8; i++ { // grow the encoder, decoder and receive buffers
			pair()
		}
		if avg := testing.AllocsPerRun(200, pair); avg != 0 {
			t.Errorf("%s path access allocates %.2f times in steady state, want 0", name, avg)
		}
	}
}

// TestRemoteWindowFaultNoAnswer is TestRemoteWriteDeadline's shape with a
// window of reads outstanding: the server takes the frames and never
// answers. The oldest read fails with ErrIO once the op timeout has passed — not
// before, and not never — whether its owner waits inside CompleteReadPath or,
// like the store's shard owner, sleeps on ReadSignal until ReadReady: the
// deadline itself must signal, because nothing else ever will. The fault
// latches, so the reads behind it and everything after fail at once, Close
// returns, and the connection's receiver goroutine does not outlive it.
func TestRemoteWindowFaultNoAnswer(t *testing.T) {
	t.Run("blocking", func(t *testing.T) { remoteNoAnswer(t, false) })
	t.Run("signalled", func(t *testing.T) { remoteNoAnswer(t, true) })
}

func remoteNoAnswer(t *testing.T, signalled bool) {
	baseline := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sunk := make(chan struct{})
	go func() {
		defer close(sunk)
		if c, err := ln.Accept(); err == nil {
			io.Copy(io.Discard, c) // until the client hangs up
			c.Close()
		}
	}()
	const opTimeout = 150 * time.Millisecond
	r, err := DialRemoteTimed(RemoteConfig{Addr: ln.Addr().String(), Namespace: "t/mute"}, Timing{Attempts: 1, Op: opTimeout})
	if err != nil {
		t.Fatal(err)
	}
	idxs, out := []uint64{0, 1, 2}, make([][]byte, 3)
	const window = 4
	start := time.Now() // before the first read leaves: its deadline runs from the send
	for i := 0; i < window; i++ {
		if err := r.IssueReadPath(idxs); err != nil {
			t.Fatal(err)
		}
	}
	if r.ReadReady() {
		t.Fatal("a read nobody answered is ready")
	}
	if signalled {
		for !r.ReadReady() {
			select {
			case <-r.ReadSignal():
			case <-time.After(10 * opTimeout):
				t.Fatalf("no signal %v after the reads were issued, op timeout %v", time.Since(start), opTimeout)
			}
		}
	}
	if err := r.CompleteReadPath(idxs, out); !errors.Is(err, ErrIO) {
		t.Fatalf("oldest read: %v, want ErrIO", err)
	}
	if d := time.Since(start); d < opTimeout || d > 10*opTimeout {
		t.Fatalf("oldest read failed after %v with op timeout %v", d, opTimeout)
	}
	start = time.Now()
	for i := 1; i < window; i++ {
		if !r.ReadReady() {
			t.Fatalf("read %d behind the fault is not ready to fail", i)
		}
		if err := r.CompleteReadPath(idxs, out); !errors.Is(err, ErrIO) || !strings.Contains(err.Error(), "unanswered") {
			t.Fatalf("read %d behind the fault: %v, want the latched lost-read fault", i, err)
		}
	}
	if err := r.WritePath(idxs, [][]byte{{1}, {2}, {3}}); !errors.Is(err, ErrIO) {
		t.Fatalf("write-back after the fault: %v, want ErrIO", err)
	}
	if err := r.IssueReadPath(idxs); !errors.Is(err, ErrIO) {
		t.Fatalf("issue after the fault: %v, want ErrIO", err)
	}
	if d := time.Since(start); d > opTimeout {
		t.Fatalf("operations behind a latched fault took %v: they waited", d)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("close after the fault: %v", err)
	}
	ln.Close()
	<-sunk
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Dial", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRemoteIdleIsNotOverdue: the op timeout bounds the wait for a frame, not the
// time a controller takes to come back for one. A write-back's
// acknowledgement that arrived while the controller sat idle for longer than
// the op timeout is taken late without complaint, and the read behind it
// gets a full op timeout of its own.
func TestRemoteIdleIsNotOverdue(t *testing.T) {
	addr, _ := startBucketd(t, bucketd.Config{RTT: 20 * time.Millisecond})
	const opTimeout = 100 * time.Millisecond
	r, err := DialRemoteTimed(RemoteConfig{Addr: addr, Namespace: "t/idle"}, Timing{Op: opTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	idxs, out := []uint64{0, 1, 2}, make([][]byte, 3)
	data := [][]byte{{1}, {2}, {3}}
	for _, split := range []bool{false, true} {
		if err := r.WritePath(idxs, data); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * opTimeout) // the alarm fires into an idle connection
		if err := r.IssueReadPath(idxs); err != nil {
			t.Fatal(err)
		}
		if split {
			for !r.ReadReady() {
				<-r.ReadSignal()
			}
		}
		if err := r.CompleteReadPath(idxs, out); err != nil {
			t.Fatalf("read after %v idle (split %v): %v", 2*opTimeout, split, err)
		}
		if !bytes.Equal(out[2], data[2]) {
			t.Fatalf("read after idle returned %x", out[2])
		}
	}
}
