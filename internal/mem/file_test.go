package mem

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

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

func mustRead(t *testing.T, b Backend, idx uint64) []byte {
	t.Helper()
	data, err := b.Read(idx)
	if err != nil {
		t.Fatalf("Read(%d): %v", idx, err)
	}
	return data
}

func openTestFile(t testing.TB, path string, slotBytes int) *FileStore {
	t.Helper()
	fs, err := OpenFile(FileConfig{Path: path, Geometry: testGeom(t), SlotBytes: slotBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

func pinFill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)*7
	}
	return b
}

// filePinHash is the SHA-256 of the page file filePinScript leaves behind,
// computed with the last commit whose FileStore went through pread/pwrite
// (d219969). It pins the on-disk format: a file written by either side of
// that change must be byte-identical. Never regenerate it from the current
// code; a mismatch means the format moved.
const filePinHash = "16f94400735b56edb235fe3dee8dab3ce634957e7ee13ff3bb3955b71f1ce588"

// filePinScript is a fixed run of full, short, shrinking, cleared and
// batched writes over a 31-bucket, 64-byte-slot file.
func filePinScript(t *testing.T, fs *FileStore) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(fs.Write(0, pinFill(64, 1)))
	must(fs.Write(5, pinFill(17, 2)))
	must(fs.Write(30, pinFill(1, 3)))
	must(fs.Write(5, pinFill(3, 4))) // shrinks: the old payload's tail stays in the slot
	must(fs.Write(30, nil))          // clears: only the length goes to zero
	must(fs.Write(12, pinFill(40, 5)))
	must(fs.Write(12, nil))
	must(fs.Write(13, pinFill(64, 6)))
	must(fs.WritePath([]uint64{1, 3, 7, 15}, [][]byte{pinFill(64, 7), nil, pinFill(33, 8), pinFill(64, 9)}))
	must(fs.WritePath([]uint64{15, 7}, [][]byte{pinFill(2, 10), pinFill(64, 11)}))
}

func TestFileFormatPin(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pin.oram")
	fs := openTestFile(t, path, 64)
	filePinScript(t, fs)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != filePinHash {
		t.Fatalf("page file hashes to %s, want the pinned %s", got, filePinHash)
	}
}

// truncatedFile is an open store, one bucket written, whose page file was
// cut to nothing behind its back: every page of the mapping now faults.
func truncatedFile(t *testing.T) *FileStore {
	t.Helper()
	path := filepath.Join(t.TempDir(), "errio.oram")
	fs := openTestFile(t, path, 64)
	if err := fs.Write(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestFileStoreReadPathWrapsErrIO pins that a real I/O-class failure from
// the file backend — here a page the kernel can no longer serve — is an
// error marked with ErrIO from every operation, and never a dead process.
func TestFileStoreReadPathWrapsErrIO(t *testing.T) {
	fs := truncatedFile(t)
	one, buf := []uint64{1}, make([][]byte, 1)
	if _, err := fs.Read(1); !errors.Is(err, ErrIO) {
		t.Errorf("Read of a truncated file: %v, want ErrIO", err)
	}
	if err := fs.ReadPath(one, buf); !errors.Is(err, ErrIO) {
		t.Errorf("ReadPath of a truncated file: %v, want ErrIO", err)
	}
	if err := fs.Write(1, []byte("y")); !errors.Is(err, ErrIO) {
		t.Errorf("Write to a truncated file: %v, want ErrIO", err)
	}
	if err := fs.WritePath(one, [][]byte{[]byte("y")}); !errors.Is(err, ErrIO) {
		t.Errorf("WritePath to a truncated file: %v, want ErrIO", err)
	}
	if info, err := os.Stat(fs.Path()); err != nil || info.Size() != 0 {
		t.Errorf("page file after the failed writes: size %v, err %v; want it still empty", info.Size(), err)
	}
}

type fakeFault struct{ addr uintptr }

func (fakeFault) Error() string   { return "fake fault" }
func (fakeFault) RuntimeError()   {}
func (f fakeFault) Addr() uintptr { return f.addr }

func TestFaultErrClassifier(t *testing.T) {
	mapping := make([]byte, 4096)
	base := uintptr(unsafe.Pointer(unsafe.SliceData(mapping)))
	for _, addr := range []uintptr{base, base + 1, base + 4095} {
		if err := faultErr(fakeFault{addr}, mapping); !errors.Is(err, ErrIO) {
			t.Errorf("fault at mapping+%d: %v, want ErrIO", addr-base, err)
		}
	}
	var indexErr any
	func() {
		defer func() { indexErr = recover() }()
		i := len(mapping)
		_ = mapping[i]
	}()
	repanics := map[string]struct {
		r       any
		mapping []byte
	}{
		"fault below the mapping":      {fakeFault{base - 1}, mapping},
		"fault past the mapping":       {fakeFault{base + 4096}, mapping},
		"fault with nothing mapped":    {fakeFault{base}, nil},
		"runtime error, not a fault":   {indexErr, mapping},
		"a panic that is not an error": {"boom", mapping},
	}
	for name, tc := range repanics {
		func() {
			defer func() {
				if r := recover(); r != tc.r {
					t.Errorf("%s: recovered %v, want the original panic %v back", name, r, tc.r)
				}
			}()
			err := faultErr(tc.r, tc.mapping)
			t.Errorf("%s: classified as %v, want a re-panic", name, err)
		}()
	}
}

func TestFileStoreUseAfterClose(t *testing.T) {
	fs := openTestFile(t, filepath.Join(t.TempDir(), "closed.oram"), 64)
	if err := fs.Write(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	one, buf := []uint64{1}, make([][]byte, 1)
	_, rerr := fs.Read(1)
	for op, err := range map[string]error{
		"Read":      rerr,
		"ReadPath":  fs.ReadPath(one, buf),
		"Write":     fs.Write(1, []byte("y")),
		"WritePath": fs.WritePath(one, [][]byte{[]byte("y")}),
		"Sync":      fs.Sync(),
	} {
		if !errors.Is(err, ErrIO) {
			t.Errorf("%s after Close: %v, want ErrIO", op, err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Errorf("second Close: %v, want nil", err)
	}
}

// TestFileStoreSecondDescriptorTamper: the adversary model over file memory
// is "someone else writes the file". The mapping is shared, so bytes written
// through another descriptor are what the next Read serves.
func TestFileStoreSecondDescriptorTamper(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tamper.oram")
	fs := openTestFile(t, path, 64)
	if err := fs.Write(3, []byte("honest")); err != nil {
		t.Fatal(err)
	}
	adv, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer adv.Close()
	if _, err := adv.WriteAt([]byte("forged"), fs.slotOff(3)+slotLenBytes); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, fs, 3); string(got) != "forged" {
		t.Fatalf("Read after a second descriptor's WriteAt = %q, want %q", got, "forged")
	}
	// And the other way: what the store wrote is what the descriptor reads.
	if err := fs.Write(3, []byte("again!")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6)
	if _, err := adv.ReadAt(got, fs.slotOff(3)+slotLenBytes); err != nil || string(got) != "again!" {
		t.Fatalf("second descriptor reads %q, %v; want %q", got, err, "again!")
	}
}

// TestFileStoreAbandonedWithoutSync is the process-crash analogue: buckets
// written through a store that is then dropped — no Sync, no Close, mapping
// still in place — belong to the page cache, and a second OpenFile of the
// same path finds every one of them.
func TestFileStoreAbandonedWithoutSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.oram")
	abandoned := openTestFile(t, path, 64) // closed only when the test ends
	want := map[uint64][]byte{}
	for idx := uint64(0); idx < abandoned.buckets; idx += 3 {
		want[idx] = pinFill(int(idx)+1, byte(idx))
		if err := abandoned.Write(idx, want[idx]); err != nil {
			t.Fatal(err)
		}
	}

	fs := openTestFile(t, path, 64)
	for idx := uint64(0); idx < fs.buckets; idx++ {
		if got := mustRead(t, fs, idx); !bytes.Equal(got, want[idx]) {
			t.Fatalf("bucket %d = %x after reopen, want %x", idx, got, want[idx])
		}
	}
}

func TestFileStorePathAllocs(t *testing.T) {
	fs := openTestFile(t, filepath.Join(t.TempDir(), "allocs.oram"), 128)
	idxs := []uint64{0, 2, 5, 11, 23, 24, 12, 30}
	data := make([][]byte, len(idxs))
	for i := range data {
		data[i] = pinFill(128, byte(i))
	}
	out := make([][]byte, len(idxs))
	if n := testing.AllocsPerRun(100, func() {
		if err := fs.WritePath(idxs, data); err != nil {
			t.Fatal(err)
		}
		if err := fs.ReadPath(idxs, out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("steady-state WritePath+ReadPath allocates %.1f/op, want 0", n)
	}
	for i := range out {
		if !bytes.Equal(out[i], data[i]) {
			t.Fatalf("level %d read back %x, want %x", i, out[i], data[i])
		}
	}
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
