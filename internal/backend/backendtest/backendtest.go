// Package backendtest is the shared conformance harness for
// backend.Backend implementations. It exists so that every position-based
// ORAM construction in this repository — the paper's Path ORAM tree and
// the Pyramid-style bucket-hash hierarchy — is held to the same contract
// by the same code: correctness under random frontend-discipline op
// traces, ErrStorage propagation without latching, maintenance-fault
// recovery, tamper tolerance, steady-state allocation budgets, and the
// access-pattern check both schemes share (the untrusted I/O trace is a
// deterministic function of the public (op schedule, leaf sequence) pair,
// so it must be invariant under a permutation of logical addresses).
//
// The suite runs at two levels. RunConformance exercises a raw
// backend.Backend; RunSystemConformance builds a full core.System around
// the named backend kind and asserts the frontend-level guarantees —
// PMMAC tamper fail-stop and the trusted-state snapshot/resume round
// trip. Test packages loop over Kinds() (and core.BackendKinds()) so a
// future third backend is one table entry away from full coverage.
package backendtest

import (
	"testing"

	"freecursive/internal/backend"
	"freecursive/internal/backend/bhoram"
	"freecursive/internal/crypt"
	"freecursive/internal/mem"
	"freecursive/internal/stats"
	"freecursive/internal/tree"
)

// Fixed keys so twin instances (snapshot round trips, differential runs)
// stay in lockstep.
var (
	cipherKey = []byte("0123456789abcdef")
	hashKey   = []byte("fedcba9876543210")
)

// CacheCapacity is the bucket-hash cache capacity the harness builds with:
// small relative to the op counts, so traces cross many rebuilds.
const CacheCapacity = 16

// Options configures one backend instance built by a Kind.
type Options struct {
	// Store is the untrusted memory; nil means a fresh mem.NewStore().
	Store mem.Backend
	// Encrypted seals buckets with the global-seed cipher.
	Encrypted bool
	// Counters receives statistics (optional).
	Counters *stats.Counters
	// StepBudget throttles a deamortizing backend's inline maintenance
	// quantum (bucket ops per access); zero keeps the backend default.
	// Backends without background maintenance ignore it.
	StepBudget int
	// TreetopBytes is the tree backend's treetop budget (backend.Config's:
	// zero is the default, negative none); other backends ignore it.
	TreetopBytes int
}

// Kind describes one backend.Backend implementation under test. Name
// doubles as the core.Params.Backend value selecting it end to end.
type Kind struct {
	Name string
	// AllocBudget is the amortized allocations-per-access ceiling in the
	// steady state (maintenance included). The tree backend's is zero by
	// design; the bucket-hash backend's small allowance covers rare map
	// growth past the warm-up high water — its rebuild bookkeeping is
	// pooled and measures zero once warm.
	AllocBudget float64
	New         func(t testing.TB, g tree.Geometry, opt Options) backend.Backend
}

// Kinds returns every backend implementation the repository ships.
func Kinds() []Kind {
	return []Kind{
		{
			Name:        "path",
			AllocBudget: 0,
			New: func(t testing.TB, g tree.Geometry, opt Options) backend.Backend {
				t.Helper()
				cfg := backend.Config{
					Geometry: g, Store: opt.Store, Counters: opt.Counters,
					TreetopBytes: opt.TreetopBytes,
				}
				if opt.Encrypted {
					cfg.Cipher = newCipher(t)
				}
				p, err := backend.NewPathORAM(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
		},
		{
			Name:        "bhoram",
			AllocBudget: 0.25,
			New: func(t testing.TB, g tree.Geometry, opt Options) backend.Backend {
				t.Helper()
				cfg := bhoram.Config{
					Geometry: g, Store: opt.Store, CacheCapacity: CacheCapacity,
					Counters: opt.Counters, StepBudget: opt.StepBudget,
				}
				if opt.Encrypted {
					cfg.Cipher = newCipher(t)
					prf, err := crypt.NewPRF(hashKey)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Hash = prf
				}
				b, err := bhoram.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return b
			},
		},
	}
}

func newCipher(t testing.TB) *crypt.BucketCipher {
	t.Helper()
	c, err := crypt.NewBucketCipher(cipherKey, crypt.SeedGlobal)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Geom returns the harness geometry: small enough that random traces
// churn every structure, large enough that both backends hold the full
// working set.
func Geom(t testing.TB) tree.Geometry {
	t.Helper()
	g, err := tree.NewGeometry(6, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Drain runs backend maintenance to completion. Backends without a
// maintenance capability drain trivially.
func Drain(t testing.TB, b backend.Backend) {
	t.Helper()
	m, ok := b.(backend.Maintainer)
	if !ok {
		return
	}
	for m.MaintainPending() {
		if _, err := m.Maintain(0); err != nil {
			t.Fatalf("draining maintenance: %v", err)
		}
	}
}
