package mem_test

// The memory contract, enforced uniformly: every test here runs over each
// memory twice, bare and wrapped in a disarmed memtest decorator, and the
// two runs must be indistinguishable.

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"freecursive/internal/backend"
	"freecursive/internal/bucketd"
	"freecursive/internal/mem"
	"freecursive/internal/mem/memtest"
	"freecursive/internal/tree"
)

func testGeom(t testing.TB) tree.Geometry {
	t.Helper()
	g, err := tree.NewGeometry(4, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// startBucketd runs an in-process bucketd on an ephemeral port and returns
// its address.
func startBucketd(t *testing.T, cfg bucketd.Config) string {
	t.Helper()
	srv := bucketd.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

func dialTest(t *testing.T, addr, namespace string) *mem.Remote {
	t.Helper()
	r, err := mem.DialRemoteTimed(mem.RemoteConfig{Addr: addr, Namespace: namespace}, mem.Timing{Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// memories opens every Backend implementation in the package, each empty
// and private to the calling test.
var memories = []struct {
	name string
	open func(t *testing.T) mem.Backend
}{
	{"map", func(t *testing.T) mem.Backend { return mem.NewStore() }},
	{"file", func(t *testing.T) mem.Backend {
		fs, err := mem.OpenFile(mem.FileConfig{
			Path:      filepath.Join(t.TempDir(), "buckets"),
			Geometry:  testGeom(t),
			SlotBytes: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fs.Close() })
		return fs
	}},
	{"remote", func(t *testing.T) mem.Backend {
		return dialTest(t, startBucketd(t, bucketd.Config{}), "t/contract")
	}},
}

// eachMemory runs f over every memory bare, then (under "flaky") every
// memory in a disarmed memtest decorator; open yields a fresh one.
func eachMemory(t *testing.T, f func(t *testing.T, open func(*testing.T) mem.Backend)) {
	for _, m := range memories {
		t.Run(m.name, func(t *testing.T) { f(t, m.open) })
	}
	t.Run("flaky", func(t *testing.T) {
		for _, m := range memories {
			t.Run(m.name, func(t *testing.T) {
				f(t, func(t *testing.T) mem.Backend { return memtest.Wrap(m.open(t)) })
			})
		}
	})
}

// eachBackend is eachMemory with one memory per run.
func eachBackend(t *testing.T, f func(t *testing.T, b mem.Backend)) {
	eachMemory(t, func(t *testing.T, open func(*testing.T) mem.Backend) { f(t, open(t)) })
}

// bare is the memory beneath a decorator, or b itself.
func bare(b mem.Backend) mem.Backend {
	if m, ok := b.(*memtest.Mem); ok {
		return m.Backend
	}
	return b
}

// splits reports whether b serves split-phase path reads.
func splits(b mem.Backend) bool {
	sp, ok := b.(mem.SplitPathReader)
	return ok && sp.ReadSignal() != nil
}

func mustRead(t *testing.T, b mem.Backend, idx uint64) []byte {
	t.Helper()
	data, err := b.Read(idx)
	if err != nil {
		t.Fatalf("Read(%d): %v", idx, err)
	}
	return data
}

func mustWrite(t *testing.T, b mem.Backend, idx uint64, data []byte) {
	t.Helper()
	if err := b.Write(idx, data); err != nil {
		t.Fatalf("Write(%d): %v", idx, err)
	}
}

// TestReadWritePeekPoke pins the per-bucket pair and the adversary's use of
// it at rest: a peek is a clone of Read, a poke is Write, and Write of nil
// deletes — all counted like any other access.
func TestReadWritePeekPoke(t *testing.T) {
	eachBackend(t, func(t *testing.T, s mem.Backend) {
		// The second pair straddles a page of the in-process store.
		for _, idx := range [][2]uint64{{5, 9}, {mem.PageBuckets - 1, mem.PageBuckets}} {
			if fs, ok := bare(s).(*mem.FileStore); ok && idx[1] >= fs.Geometry().Buckets() {
				continue
			}
			readWritePeekPoke(t, s, idx[0], idx[1])
		}
	})
}

func readWritePeekPoke(t *testing.T, s mem.Backend, a, b uint64) {
	t.Helper()
	st0 := s.Stats()
	if mustRead(t, s, a) != nil {
		t.Fatal("read of never-written bucket should be nil")
	}
	mustWrite(t, s, a, []byte{1, 2, 3})
	if !bytes.Equal(mustRead(t, s, a), []byte{1, 2, 3}) {
		t.Fatal("read back mismatch")
	}
	if st := s.Stats(); st.Reads-st0.Reads != 2 || st.Writes-st0.Writes != 1 {
		t.Fatalf("reads=%d writes=%d", st.Reads-st0.Reads, st.Writes-st0.Writes)
	}
	mustWrite(t, s, b, []byte{7})
	peeked := bytes.Clone(mustRead(t, s, b))
	if !bytes.Equal(peeked, []byte{7}) {
		t.Fatal("poke/peek mismatch")
	}
	st := s.Stats()
	if st.Reads-st0.Reads != 3 || st.Writes-st0.Writes != 2 {
		t.Fatalf("after poke/peek: reads=%d writes=%d, want 3 and 2", st.Reads-st0.Reads, st.Writes-st0.Writes)
	}
	_, inProcess := bare(s).(*mem.Store)
	if inProcess && st.Bytes-st0.Bytes != 4 {
		t.Fatalf("bytes=%d, want 4", st.Bytes-st0.Bytes)
	}
	mustWrite(t, s, b, nil)
	if mustRead(t, s, b) != nil {
		t.Fatal("write of nil should delete")
	}
	st = s.Stats()
	if inProcess && st.Bytes-st0.Bytes != 3 {
		t.Fatalf("bytes=%d after delete, want 3", st.Bytes-st0.Bytes)
	}
	if inProcess {
		// A held Read slice is the live bucket: it keeps tracking Writes
		// after a far write grows the page directory under it.
		live := mustRead(t, s, a)
		mustWrite(t, s, 1<<20, []byte{1})
		mustWrite(t, s, a, []byte{4, 5, 6})
		if !bytes.Equal(live, []byte{4, 5, 6}) {
			t.Fatalf("held Read slice reads %v after the directory grew, want the rewrite", live)
		}
		mustWrite(t, s, 1<<20, nil)
	}
}

// TestTamperHooks pins the in-flight adversary: OnWrite's result is what
// lands, OnRead's what the caller gets, and at rest the memory holds the
// tampered bytes.
func TestTamperHooks(t *testing.T) {
	eachBackend(t, func(t *testing.T, b mem.Backend) {
		s := memtest.Wrap(b)
		var sawWrite, sawRead uint64
		s.OnWrite = func(idx uint64, data []byte) []byte {
			sawWrite = idx
			return append([]byte{0xff}, data...) // adversary prepends a byte
		}
		s.OnRead = func(idx uint64, data []byte) []byte {
			sawRead = idx
			return data[1:] // and strips it again
		}
		mustWrite(t, s, 3, []byte{1, 2})
		got := mustRead(t, s, 3)
		if sawWrite != 3 || sawRead != 3 {
			t.Fatal("hooks not invoked")
		}
		if !bytes.Equal(got, []byte{1, 2}) {
			t.Fatalf("hook plumbing broken: %v", got)
		}
		if !bytes.Equal(mustRead(t, b, 3), []byte{0xff, 1, 2}) {
			t.Fatal("stored bytes should reflect OnWrite result")
		}
	})
}

func TestReadHookSeesNil(t *testing.T) {
	eachBackend(t, func(t *testing.T, b mem.Backend) {
		s := memtest.Wrap(b)
		called := false
		s.OnRead = func(idx uint64, data []byte) []byte {
			called = true
			if data != nil {
				t.Error("expected nil for never-written bucket")
			}
			return data
		}
		if mustRead(t, s, 1) != nil || !called {
			t.Fatal("hook not called for missing bucket")
		}
	})
}

// TestWriteDoesNotRetain pins the hot-path ownership contract: after Write
// or WritePath returns, the caller owns its slices again and may scribble
// on them without affecting the stored buckets. Every Backend must
// copy-or-persist (or, for a pipelined WritePath, put on the wire) before
// returning.
func TestWriteDoesNotRetain(t *testing.T) {
	eachBackend(t, func(t *testing.T, s mem.Backend) {
		buf := []byte{1, 2, 3}
		mustWrite(t, s, 4, buf)
		buf[0] = 0xEE // caller reuses its scratch buffer
		if got := mustRead(t, s, 4); !bytes.Equal(got, []byte{1, 2, 3}) {
			t.Fatalf("stored bucket changed with the caller's slice: %v", got)
		}

		path := [][]byte{{4, 5}, {6}}
		if err := s.WritePath([]uint64{6, 7}, path); err != nil {
			t.Fatal(err)
		}
		path[0][0], path[1][0] = 0xEE, 0xEE
		if got := mustRead(t, s, 6); !bytes.Equal(got, []byte{4, 5}) {
			t.Fatalf("bucket 6 changed with the caller's path slices: %v", got)
		}
		if got := mustRead(t, s, 7); !bytes.Equal(got, []byte{6}) {
			t.Fatalf("bucket 7 changed with the caller's path slices: %v", got)
		}
	})
}

// pathTranscript runs one fixed write-then-read script against an empty
// memory through a hooking decorator — through WritePath/ReadPath when
// batched, through per-bucket Write/Read loops otherwise — and returns
// everything observable about it: each hook invocation with the bytes it
// saw, the operation counters after each phase, and the bytes each read
// returned. The OnWrite hook tampers, so the transcript also shows that
// what lands is the hook's result.
func pathTranscript(t *testing.T, m mem.Backend, batched bool) []string {
	t.Helper()
	var log []string
	note := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	b := memtest.Wrap(m)
	b.OnWrite = func(idx uint64, data []byte) []byte {
		note("onwrite %d %q", idx, data)
		return append([]byte{'!'}, data...)
	}
	b.OnRead = func(idx uint64, data []byte) []byte {
		note("onread %d %q nil=%v", idx, data, data == nil)
		return data
	}

	widxs := []uint64{4, 0, 2} // unsorted on purpose: order is the caller's
	wdata := [][]byte{[]byte("four"), []byte("zero"), []byte("two")}
	if batched {
		if err := b.WritePath(widxs, wdata); err != nil {
			t.Fatal(err)
		}
	} else {
		for i, idx := range widxs {
			mustWrite(t, b, idx, wdata[i])
		}
	}
	for _, d := range wdata {
		clear(d) // the caller owns its slices again
	}
	st := b.Stats()
	note("after writes: reads=%d writes=%d", st.Reads, st.Writes)

	ridxs := []uint64{4, 1, 0, 2} // bucket 1 was never written
	out := make([][]byte, len(ridxs))
	if batched {
		// Every out[i] must stay valid until the next operation.
		if err := b.ReadPath(ridxs, out); err != nil {
			t.Fatal(err)
		}
	} else {
		for i, idx := range ridxs {
			// A Read result is only valid until the next one.
			out[i] = bytes.Clone(mustRead(t, b, idx))
		}
	}
	for i, idx := range ridxs {
		note("read %d %q nil=%v", idx, out[i], out[i] == nil)
	}
	st = b.Stats()
	note("after reads: reads=%d writes=%d", st.Reads, st.Writes)
	return log
}

// TestPathOpsAreBucketLoops is the memory contract every layer above
// relies on: on every implementation ReadPath and WritePath are observably
// a loop of Read and Write in idxs order — same bytes (nil for a
// never-written bucket), hooks once per bucket in order, counters advancing
// per bucket, all ReadPath results valid at once, caller slices not
// retained. Both spellings of the script must produce the one transcript
// pinned here.
func TestPathOpsAreBucketLoops(t *testing.T) {
	want := []string{
		`onwrite 4 "four"`, `onwrite 0 "zero"`, `onwrite 2 "two"`,
		"after writes: reads=0 writes=3",
		`onread 4 "!four" nil=false`, `onread 1 "" nil=true`,
		`onread 0 "!zero" nil=false`, `onread 2 "!two" nil=false`,
		`read 4 "!four" nil=false`, `read 1 "" nil=true`,
		`read 0 "!zero" nil=false`, `read 2 "!two" nil=false`,
		"after reads: reads=4 writes=3",
	}
	eachMemory(t, func(t *testing.T, open func(*testing.T) mem.Backend) {
		for _, batched := range []bool{false, true} {
			t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
				if got := pathTranscript(t, open(t), batched); !slices.Equal(got, want) {
					t.Errorf("transcript:\n  %s\nwant:\n  %s",
						strings.Join(got, "\n  "), strings.Join(want, "\n  "))
				}
			})
		}
	})
}

// transcript drives one script of every data operation — split-phase
// reads too, where the memory has them — and records every byte read and
// the counters after it.
func transcript(t *testing.T, b mem.Backend) []string {
	t.Helper()
	var log []string
	note := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	idxs, out := []uint64{0, 1, 3, 7}, make([][]byte, 4)
	if err := b.WritePath(idxs, [][]byte{[]byte("root"), nil, []byte("mid"), []byte("leaf")}); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, b, 3, []byte("again"))
	mustWrite(t, b, 0, nil)
	if err := b.ReadPath(idxs, out); err != nil {
		t.Fatal(err)
	}
	note("readpath %q", out)
	note("read %q", mustRead(t, b, 7))
	note("splits=%v", splits(b))
	if sp, ok := b.(mem.SplitPathReader); ok && splits(b) {
		if err := sp.IssueReadPath(idxs); err != nil {
			t.Fatal(err)
		}
		if err := b.WritePath(idxs[3:], [][]byte{[]byte("late")}); err != nil {
			t.Fatal(err)
		}
		if err := sp.CompleteReadPath(idxs, out); err != nil {
			t.Fatal(err)
		}
		note("split %q", out)
	}
	st := b.Stats()
	note("stats %+v", st)
	return log
}

// TestWrappedIsTransparent: a disarmed, unhooked decorator changes nothing
// a controller can observe — the same bytes, the same Stats, split-phase
// reads exactly when the memory has them — and every data operation it
// forwards is counted once.
func TestWrappedIsTransparent(t *testing.T) {
	for _, m := range memories {
		t.Run(m.name, func(t *testing.T) {
			want := transcript(t, m.open(t))
			w := memtest.Wrap(m.open(t))
			if got := transcript(t, w); !slices.Equal(got, want) {
				t.Errorf("wrapped:\n  %s\nbare:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
			}
			ops := uint64(5)
			if splits(w) {
				ops = 7
			}
			if w.Ops != ops {
				t.Errorf("decorator counted %d operations, want %d", w.Ops, ops)
			}
		})
	}
}

// TestSplitHooksRunAtCompletion: over a memory that splits, the decorator
// forwards the split and runs OnRead as the buckets reach the caller, once
// per bucket; the wiretap sees the read when it is issued.
func TestSplitHooksRunAtCompletion(t *testing.T) {
	r := memtest.Wrap(memories[2].open(t))
	var log []string
	r.Trace = func(op byte, idx uint64) { log = append(log, fmt.Sprintf("wire %d %d", op, idx)) }
	r.OnRead = func(idx uint64, data []byte) []byte {
		log = append(log, fmt.Sprintf("onread %d %q", idx, data))
		return data
	}
	idxs, out := []uint64{2, 5}, make([][]byte, 2)
	if err := r.WritePath(idxs, [][]byte{[]byte("two"), []byte("five")}); err != nil {
		t.Fatal(err)
	}
	if err := r.IssueReadPath(idxs); err != nil {
		t.Fatal(err)
	}
	log = append(log, "issued")
	for !r.ReadReady() {
		<-r.ReadSignal()
	}
	if err := r.CompleteReadPath(idxs, out); err != nil {
		t.Fatal(err)
	}
	want := []string{"wire 4 2", "wire 4 5", "wire 3 2", "wire 3 5", "issued", `onread 2 "two"`, `onread 5 "five"`}
	if !slices.Equal(log, want) {
		t.Fatalf("log %q, want %q", log, want)
	}
}

// TestUnsplitMemoryFallsBack: the decorator over a memory that cannot split
// reports a nil ReadSignal, so the path backend above reads whole paths —
// one ReadPath and one WritePath per access — and never issues a read the
// memory cannot serve; with Capture set it splits.
func TestUnsplitMemoryFallsBack(t *testing.T) {
	g := testGeom(t)
	for _, capture := range []bool{false, true} {
		m := memtest.Wrap(mem.NewStore())
		m.Capture = capture
		p, err := backend.NewPathORAM(backend.Config{Geometry: g, Store: m, TreetopBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		if (p.Signal() != nil) != capture {
			t.Fatalf("capture %v: backend signal %v", capture, p.Signal())
		}
		const accesses = 20
		for i := uint64(0); i < accesses; i++ {
			lf := i % g.Leaves()
			if _, err := p.Access(backend.Request{Op: backend.OpWrite, Addr: i, Leaf: lf, NewLeaf: lf, Data: []byte{byte(i)}}); err != nil {
				t.Fatalf("capture %v: access %d: %v", capture, i, err)
			}
		}
		if m.Ops != 2*accesses {
			t.Fatalf("capture %v: %d memory operations for %d accesses, want %d", capture, m.Ops, accesses, 2*accesses)
		}
	}
}
