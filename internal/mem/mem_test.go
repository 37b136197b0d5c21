package mem

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"freecursive/internal/bucketd"
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

// implementations opens every Backend implementation in the package, each
// empty and private to the calling test.
var implementations = []struct {
	name string
	open func(t *testing.T) Backend
}{
	{"map", func(t *testing.T) Backend { return NewStore() }},
	{"file", func(t *testing.T) Backend {
		fs, err := OpenFile(FileConfig{
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
	{"flaky", func(t *testing.T) Backend { return WithFaults(NewStore(), FlakyConfig{}) }},
	{"remote", func(t *testing.T) Backend {
		addr, _ := startBucketd(t, bucketd.Config{})
		return dialTest(t, addr, "t/contract")
	}},
}

// eachBackend runs f against every Backend implementation so the shared
// contract (hook ordering, counters, Peek/Poke bypass) is enforced
// uniformly.
func eachBackend(t *testing.T, f func(t *testing.T, b Backend)) {
	for _, impl := range implementations {
		t.Run(impl.name, func(t *testing.T) { f(t, impl.open(t)) })
	}
}

func mustRead(t *testing.T, b Backend, idx uint64) []byte {
	t.Helper()
	data, err := b.Read(idx)
	if err != nil {
		t.Fatalf("Read(%d): %v", idx, err)
	}
	return data
}

func TestReadWritePeekPoke(t *testing.T) {
	eachBackend(t, func(t *testing.T, s Backend) {
		// The second pair straddles a page of the in-process store.
		for _, idx := range [][2]uint64{{5, 9}, {pageBuckets - 1, pageBuckets}} {
			if fs, ok := s.(*FileStore); ok && idx[1] >= fs.Geometry().Buckets() {
				continue
			}
			readWritePeekPoke(t, s, idx[0], idx[1])
		}
	})
}

func readWritePeekPoke(t *testing.T, s Backend, a, b uint64) {
	t.Helper()
	st0 := s.Stats()
	if mustRead(t, s, a) != nil {
		t.Fatal("read of never-written bucket should be nil")
	}
	if err := s.Write(a, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustRead(t, s, a), []byte{1, 2, 3}) {
		t.Fatal("read back mismatch")
	}
	if st := s.Stats(); st.Reads-st0.Reads != 2 || st.Writes-st0.Writes != 1 {
		t.Fatalf("reads=%d writes=%d", st.Reads-st0.Reads, st.Writes-st0.Writes)
	}
	// Peek/Poke bypass counters (the adversary's direct line to DRAM).
	s.Poke(b, []byte{7})
	if !bytes.Equal(s.Peek(b), []byte{7}) {
		t.Fatal("poke/peek mismatch")
	}
	st := s.Stats()
	if st.Reads-st0.Reads != 2 || st.Writes-st0.Writes != 1 {
		t.Fatal("peek/poke must not count")
	}
	_, inProcess := s.(*Store)
	if inProcess && st.Bytes-st0.Bytes != 4 {
		t.Fatalf("bytes=%d, want 4", st.Bytes-st0.Bytes)
	}
	// Poke(nil) deletes.
	s.Poke(b, nil)
	if s.Peek(b) != nil {
		t.Fatal("poke(nil) should delete")
	}
	st = s.Stats()
	if inProcess && st.Bytes-st0.Bytes != 3 {
		t.Fatalf("bytes=%d after delete, want 3", st.Bytes-st0.Bytes)
	}
	if inProcess {
		// A held Peek slice is the live bucket: it keeps tracking Writes
		// after a far write grows the page directory under it.
		live := s.Peek(a)
		if err := s.Write(1<<20, []byte{1}); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(a, []byte{4, 5, 6}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(live, []byte{4, 5, 6}) {
			t.Fatalf("held Peek slice reads %v after the directory grew, want the rewrite", live)
		}
		s.Poke(1<<20, nil)
	}
}

func TestTamperHooks(t *testing.T) {
	eachBackend(t, func(t *testing.T, s Backend) {
		var sawWrite, sawRead uint64
		s.SetOnWrite(func(idx uint64, data []byte) []byte {
			sawWrite = idx
			return append([]byte{0xff}, data...) // adversary prepends a byte
		})
		s.SetOnRead(func(idx uint64, data []byte) []byte {
			sawRead = idx
			return data[1:] // and strips it again
		})
		if err := s.Write(3, []byte{1, 2}); err != nil {
			t.Fatal(err)
		}
		got := mustRead(t, s, 3)
		if sawWrite != 3 || sawRead != 3 {
			t.Fatal("hooks not invoked")
		}
		if !bytes.Equal(got, []byte{1, 2}) {
			t.Fatalf("hook plumbing broken: %v", got)
		}
		// At rest, the stored bytes are the tampered ones.
		if !bytes.Equal(s.Peek(3), []byte{0xff, 1, 2}) {
			t.Fatal("stored bytes should reflect OnWrite result")
		}
	})
}

func TestReadHookSeesNil(t *testing.T) {
	eachBackend(t, func(t *testing.T, s Backend) {
		called := false
		s.SetOnRead(func(idx uint64, data []byte) []byte {
			called = true
			if data != nil {
				t.Error("expected nil for never-written bucket")
			}
			return data
		})
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
	eachBackend(t, func(t *testing.T, s Backend) {
		buf := []byte{1, 2, 3}
		if err := s.Write(4, buf); err != nil {
			t.Fatal(err)
		}
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

// TestSteadyStateOpAllocs pins the allocation-free steady state the ORAM
// access loop depends on: once a bucket exists, rewriting and rereading it
// allocates nothing in either built-in store.
func TestSteadyStateOpAllocs(t *testing.T) {
	run := func(t *testing.T, s Backend, idx uint64) {
		data := make([]byte, 100)
		if err := s.Write(idx, data); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(300, func() {
			if err := s.Write(idx, data); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Read(idx); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("steady-state Write+Read allocates %.1f/op, want 0", n)
		}
	}
	t.Run("map", func(t *testing.T) {
		run(t, NewStore(), 1)

		// The deepest bucket of an L = 24 tree, the top of the paper's
		// range: its first write grows the directory to 2^17 pages (1 MiB)
		// and allocates one page, nothing for the buckets in between.
		g, err := tree.NewGeometry(24, 4, 64)
		if err != nil {
			t.Fatal(err)
		}
		deepest := g.Buckets() - 1
		heap := func() int64 {
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			return int64(m.HeapAlloc)
		}
		s := NewStore()
		before := heap()
		if err := s.Write(deepest, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		if grew := heap() - before; grew > 3<<19 {
			t.Fatalf("writing bucket %d grew the heap by %d B, want <= 1.5 MiB", deepest, grew)
		}
		run(t, s, deepest)
		// Reading a page never written allocates nothing either.
		if n := testing.AllocsPerRun(300, func() {
			if data, err := s.Read(deepest / 2); data != nil || err != nil {
				t.Fatalf("never-written bucket read %v, %v", data, err)
			}
		}); n != 0 {
			t.Fatalf("Read of a never-written page allocates %.1f/op, want 0", n)
		}
	})
	t.Run("file", func(t *testing.T) {
		fs, err := OpenFile(FileConfig{
			Path:      filepath.Join(t.TempDir(), "buckets"),
			Geometry:  testGeom(t),
			SlotBytes: 128,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fs.Close() })
		run(t, fs, 1)
	})
}

func TestFileReopen(t *testing.T) {
	cfg := FileConfig{
		Path:      filepath.Join(t.TempDir(), "buckets"),
		Geometry:  testGeom(t),
		SlotBytes: 64,
	}
	fs, err := OpenFile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64][]byte{0: {1}, 7: {2, 2}, 30: bytes.Repeat([]byte{9}, 64)}
	for idx, data := range want {
		if err := fs.Write(idx, bytes.Clone(data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs, err = OpenFile(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer fs.Close()
	for idx, data := range want {
		if got := mustRead(t, fs, idx); !bytes.Equal(got, data) {
			t.Fatalf("bucket %d = %x after reopen, want %x", idx, got, data)
		}
	}
	if mustRead(t, fs, 3) != nil {
		t.Fatal("never-written bucket materialized across reopen")
	}
}

func TestFileReopenGeometryMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "buckets")
	fs, err := OpenFile(FileConfig{Path: path, Geometry: testGeom(t), SlotBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	fs.Close()

	bad, _ := tree.NewGeometry(5, 2, 16)
	if _, err := OpenFile(FileConfig{Path: path, Geometry: bad, SlotBytes: 64}); err == nil {
		t.Fatal("reopen with mismatched geometry should fail")
	}
	if _, err := OpenFile(FileConfig{Path: path, Geometry: testGeom(t), SlotBytes: 32}); err == nil {
		t.Fatal("reopen with mismatched slot size should fail")
	}
}

func TestFileTornTail(t *testing.T) {
	cfg := FileConfig{
		Path:      filepath.Join(t.TempDir(), "buckets"),
		Geometry:  testGeom(t),
		SlotBytes: 64,
	}
	fs, err := OpenFile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := fs.Geometry().Buckets() - 1
	if err := fs.Write(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write(last, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the file: chop off the last slot mid-write.
	info, err := os.Stat(cfg.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(cfg.Path, info.Size()-10); err != nil {
		t.Fatal(err)
	}

	fs, err = OpenFile(cfg)
	if err != nil {
		t.Fatalf("reopening torn file: %v", err)
	}
	defer fs.Close()
	if !bytes.Equal(mustRead(t, fs, 0), []byte{1}) {
		t.Fatal("intact bucket lost after torn reopen")
	}
	// The torn slot reads as truncated or absent bytes — never an error.
	// (PMMAC above this layer is what must reject it.)
	if _, err := fs.Read(last); err != nil {
		t.Fatalf("torn slot should not error at the mem layer: %v", err)
	}
}

func TestFileRejectsOversizedBucket(t *testing.T) {
	fs, err := OpenFile(FileConfig{
		Path:      filepath.Join(t.TempDir(), "buckets"),
		Geometry:  testGeom(t),
		SlotBytes: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if err := fs.Write(0, make([]byte, 9)); err == nil {
		t.Fatal("oversized bucket should be rejected")
	}
}

func TestFileRangeCheck(t *testing.T) {
	fs, err := OpenFile(FileConfig{
		Path:      filepath.Join(t.TempDir(), "buckets"),
		Geometry:  testGeom(t),
		SlotBytes: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	out := fs.Geometry().Buckets()
	if _, err := fs.Read(out); err == nil {
		t.Fatal("out-of-range read should fail")
	}
	if err := fs.Write(out, []byte{1}); err == nil {
		t.Fatal("out-of-range write should fail")
	}
}
