package mem_test

// Extends the error-conformance table upward one layer: the errors that
// escape the ORAM backends when their UNTRUSTED MEMORY faults must also
// satisfy errors.Is(err, freecursive.ErrStorage) — the store layer's
// quarantine logic never looks deeper than that predicate. The campaigns
// drive the memtest decorator's deterministic schedules through both backend
// constructions' access paths and through the bucket-hash backend's
// deamortized rebuild path. The first fault stops a backend
// (backend.FaultLatch; the conformance suite in backendtest pins that), so
// each campaign also sees the refusals that follow it — they must match the
// predicate too.

import (
	"errors"
	"testing"

	"freecursive"
	"freecursive/internal/backend"
	"freecursive/internal/backend/bhoram"
	"freecursive/internal/crypt"
	"freecursive/internal/mem"
	"freecursive/internal/mem/memtest"
	"freecursive/internal/tree"
)

func oramGeom(t *testing.T) tree.Geometry {
	t.Helper()
	g, err := tree.NewGeometry(5, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func oramCipher(t *testing.T) *crypt.BucketCipher {
	t.Helper()
	c, err := crypt.NewBucketCipher([]byte("0123456789abcdef"), crypt.SeedGlobal)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newFaultyPath(t *testing.T, fb mem.Backend) backend.Backend {
	t.Helper()
	p, err := backend.NewPathORAM(backend.Config{
		Geometry: oramGeom(t), Store: fb, Cipher: oramCipher(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newFaultyBucketHash(t *testing.T, fb mem.Backend, stepBudget int) *bhoram.BucketHash {
	t.Helper()
	prf, err := crypt.NewPRF([]byte("fedcba9876543210"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := bhoram.New(bhoram.Config{
		Geometry: oramGeom(t), Store: fb, Cipher: oramCipher(t), Hash: prf,
		CacheCapacity: 8, StepBudget: stepBudget,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestORAMBackendFaultsWrapErrStorage drives scheduled memtest faults
// through each backend's untrusted-I/O paths and asserts every escaping
// error matches freecursive.ErrStorage.
func TestORAMBackendFaultsWrapErrStorage(t *testing.T) {
	g := oramGeom(t)
	// Each address keeps a fixed leaf: a faulted access may or may not have
	// applied its mutation, and a stable leaf keeps the next attempt valid
	// either way.
	access := func(b backend.Backend, i int) error {
		addr := uint64(i % 32)
		lf := (addr * 11) % g.Leaves()
		_, err := b.Access(backend.Request{
			Op: backend.OpWrite, Addr: addr, Leaf: lf, NewLeaf: lf,
			Data: []byte{byte(i)},
		})
		return err
	}
	cases := []struct {
		name string
		errs func(t *testing.T) []error
	}{
		{"path access", func(t *testing.T) []error {
			fb := faulty(memtest.Schedule{FailEvery: 13})
			b := newFaultyPath(t, fb)
			var out []error
			for i := 0; i < 120; i++ {
				if err := access(b, i); err != nil {
					out = append(out, err)
				}
			}
			return out
		}},
		{"bhoram probe", func(t *testing.T) []error {
			fb := faulty(memtest.Schedule{FailEvery: 13})
			b := newFaultyBucketHash(t, fb, 0)
			var out []error
			for i := 0; i < 120; i++ {
				if err := access(b, i); err != nil {
					out = append(out, err)
				}
			}
			return out
		}},
		{"bhoram rebuild", func(t *testing.T) []error {
			// A starved inline quantum queues rebuild work, so the schedule
			// lands on rebuild steps as well as probes.
			b := newFaultyBucketHash(t, faulty(memtest.Schedule{FailEvery: 7}), 1)
			var out []error
			for i := 0; i < 120; i++ {
				if err := access(b, i); err != nil {
					out = append(out, err)
				}
			}
			for i := 0; i < 2000 && b.MaintainPending(); i++ {
				if _, err := b.Maintain(4); err != nil {
					out = append(out, err)
					break // fail-stop: every later step is refused the same way
				}
			}
			if len(out) == 0 {
				t.Fatal("rebuild drain never faulted")
			}
			return out
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := tc.errs(t)
			if len(errs) == 0 {
				t.Fatal("fault schedule never fired")
			}
			for _, err := range errs {
				if !errors.Is(err, freecursive.ErrStorage) {
					t.Errorf("escaped error does not match freecursive.ErrStorage: %v", err)
				}
			}
		})
	}
}
