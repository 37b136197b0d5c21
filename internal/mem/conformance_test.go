package mem_test

// The runtime twin of the errwrap analyzer: the static check proves every
// error constructed in internal/mem wraps a sentinel, and this table
// proves the errors that actually escape each Backend implementation
// satisfy errors.Is(err, freecursive.ErrStorage). The store layer's
// quarantine logic keys on exactly that predicate, so a backend whose
// faults stopped matching would silently turn fail-stop shards into
// crash loops.

import (
	"errors"
	"net"
	"path/filepath"
	"testing"
	"time"

	"freecursive"
	"freecursive/internal/bucketd"
	"freecursive/internal/mem"
	"freecursive/internal/mem/memtest"
	"freecursive/internal/tree"
)

func confGeom(t *testing.T) tree.Geometry {
	t.Helper()
	g, err := tree.NewGeometry(2, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func confFile(t *testing.T) *mem.FileStore {
	t.Helper()
	fs, err := mem.OpenFile(mem.FileConfig{
		Path:      filepath.Join(t.TempDir(), "buckets"),
		Geometry:  confGeom(t),
		SlotBytes: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

// TestBackendErrorsWrapErrStorage drives every Backend implementation into
// each of its error paths and asserts the escaping error matches
// freecursive.ErrStorage.
func TestBackendErrorsWrapErrStorage(t *testing.T) {
	cases := []struct {
		name string
		errs func(t *testing.T) map[string]error
	}{
		{"Store", func(t *testing.T) map[string]error {
			// The map-backed store has no error paths at all; pin that down
			// so a future error path added here lands in this table.
			s := mem.NewStore()
			_, rerr := s.Read(0)
			werr := s.Write(0, []byte("x"))
			if rerr != nil || werr != nil {
				t.Fatalf("Store grew error paths (read=%v write=%v); add them to the conformance table", rerr, werr)
			}
			return nil
		}},
		{"FileStore", func(t *testing.T) map[string]error {
			fs := confFile(t)
			out := map[string]error{}
			_, out["read out-of-range"] = fs.Read(1 << 40)
			out["write out-of-range"] = fs.Write(1<<40, []byte("x"))
			out["write oversized"] = fs.Write(0, make([]byte, 65))
			return out
		}},
		{"Flaky", func(t *testing.T) map[string]error {
			b := faulty(memtest.Schedule{FailEvery: 1})
			out := map[string]error{}
			_, out["read"] = b.Read(0)
			out["write"] = b.Write(0, []byte("x"))
			out["readpath"] = b.ReadPath([]uint64{0, 1}, make([][]byte, 2))
			return out
		}},
		{"Remote", func(t *testing.T) map[string]error {
			out := map[string]error{}

			// Dead server: the initial dial exhausts its attempts.
			_, out["dial dead address"] = mem.DialRemoteTimed(
				mem.RemoteConfig{Addr: "127.0.0.1:1", Namespace: "conformance/dead"},
				mem.Timing{Dial: 100 * time.Millisecond, Attempts: 1})

			// Live server that fails every data operation.
			srv := bucketd.New(bucketd.Config{FailEvery: 1})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)
			t.Cleanup(func() { srv.Close() })
			r, err := mem.DialRemoteTimed(
				mem.RemoteConfig{Addr: ln.Addr().String(), Namespace: "conformance/flaky"},
				mem.Timing{Backoff: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			_, out["read (server fault)"] = r.Read(0)
			out["write (server fault)"] = r.Write(0, []byte("x"))
			return out
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for op, err := range tc.errs(t) {
				if err == nil {
					t.Errorf("%s: expected an error, got nil", op)
					continue
				}
				if !errors.Is(err, freecursive.ErrStorage) {
					t.Errorf("%s: error does not match freecursive.ErrStorage: %v", op, err)
				}
			}
		})
	}
}
