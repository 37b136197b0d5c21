package backend_test

// Differential proof of backend equivalence: the Path ORAM tree and the
// bucket-hash hierarchy are different constructions with different
// untrusted layouts and different I/O schedules, but behind the
// backend.Backend interface they must be THE SAME oblivious memory. Both
// replay the identical scripted op trace (same slots, same leaves, same
// payloads) and every step must return the identical plaintext result —
// same Found bit, same block contents — plaintext and encrypted. The
// scheme-appropriate obliviousness half (the I/O
// trace is invariant under address permutation, with scheme-specific
// trace shapes) runs per kind inside the conformance suite's
// TraceInvariance subtest; here we additionally pin that the equivalence
// survives address permutation applied to ONE side only — results are a
// function of logical content, addresses are just names.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"freecursive/internal/adversary"
	"freecursive/internal/backend"
	"freecursive/internal/backend/backendtest"
	"freecursive/internal/mem"
	"freecursive/internal/mem/memtest"
)

func TestDifferentialBackendEquivalence(t *testing.T) {
	kinds := backendtest.Kinds()
	if len(kinds) < 2 {
		t.Fatal("differential test needs at least two backend kinds")
	}
	for _, enc := range []bool{false, true} {
		t.Run(fmt.Sprintf("enc=%v", enc), func(t *testing.T) {
			g := backendtest.Geom(t)
			script := backendtest.GenScript(101, 3000, 96, g.Leaves(), g.BlockBytes)
			var refName string
			var ref []backendtest.StepResult
			for _, k := range kinds {
				b := k.New(t, g, backendtest.Options{Encrypted: enc})
				got := backendtest.RunScript(t, b, script, backendtest.IdentityAddr)
				if ref == nil {
					refName, ref = k.Name, got
					continue
				}
				compareRuns(t, refName, ref, k.Name, got)
			}
		})
	}
}

// TestDifferentialEquivalenceUnderPermutation renames every logical
// address on one side only; the plaintext results must still match
// step for step.
func TestDifferentialEquivalenceUnderPermutation(t *testing.T) {
	kinds := backendtest.Kinds()
	g := backendtest.Geom(t)
	script := backendtest.GenScript(103, 2000, 64, g.Leaves(), g.BlockBytes)
	var refName string
	var ref []backendtest.StepResult
	for i, k := range kinds {
		addrOf := backendtest.IdentityAddr
		if i%2 == 1 {
			addrOf = backendtest.PermutedAddr
		}
		b := k.New(t, g, backendtest.Options{Encrypted: true})
		got := backendtest.RunScript(t, b, script, addrOf)
		if ref == nil {
			refName, ref = k.Name, got
			continue
		}
		compareRuns(t, refName, ref, k.Name, got)
	}
}

func compareRuns(t *testing.T, refName string, ref []backendtest.StepResult, name string, got []backendtest.StepResult) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s returned %d step results, %s returned %d", refName, len(ref), name, len(got))
	}
	for i := range ref {
		if ref[i].Found != got[i].Found {
			t.Fatalf("step %d: %s found=%v, %s found=%v", i, refName, ref[i].Found, name, got[i].Found)
		}
		if !bytes.Equal(ref[i].Data, got[i].Data) {
			t.Fatalf("step %d: plaintext results diverge between %s and %s", i, refName, name)
		}
	}
}

// newWindowedPath builds the path backend over a split-phase memory.
func newWindowedPath(t *testing.T, enc bool, treetopBytes int) (backendtest.Windowed, *memtest.Mem) {
	t.Helper()
	st := memtest.Wrap(mem.NewStore())
	st.Capture = true
	b := backendtest.Kinds()[0].New(t, backendtest.Geom(t), backendtest.Options{Store: st, Encrypted: enc, TreetopBytes: treetopBytes})
	w, ok := b.(backendtest.Windowed)
	if !ok {
		t.Fatalf("%T has no in-flight window", b)
	}
	return w, st
}

// TestDifferentialWindowDepths: the in-flight window is invisible in the
// results. The path backend replays one script serially over a map store
// (the reference), then through Begin and Complete over a split-phase memory
// at every depth up to the store's, under several random interleavings of
// begins and completions — readrmv and append included, and, in the script
// over a handful of slots, with most windows holding several accesses to
// one address. Every run returns the reference's values step for step, and
// depth 1 leaves the very same sealed bytes in memory — with no treetop,
// with half the levels cached and with the default budget, which holds all
// of this tree but its leaves.
func TestDifferentialWindowDepths(t *testing.T) {
	const maxDepth = 4
	g := backendtest.Geom(t)
	scripts := map[string][]backendtest.Op{
		"wide":   backendtest.GenScript(211, 2500, 96, g.Leaves(), g.BlockBytes),
		"narrow": backendtest.GenScript(223, 2500, 6, g.Leaves(), g.BlockBytes),
	}
	for name, script := range scripts {
		for _, enc := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/enc=%v", name, enc), func(t *testing.T) {
				for _, top := range []int{-1, backend.TreetopBytesFor(g, 3), 0} {
					t.Run(fmt.Sprintf("treetop=%d", top), func(t *testing.T) {
						serialStore := mem.NewStore()
						serial := backendtest.Kinds()[0].New(t, g, backendtest.Options{Store: serialStore, Encrypted: enc, TreetopBytes: top})
						ref := backendtest.RunScript(t, serial, script, backendtest.IdentityAddr)
						for depth := 1; depth <= maxDepth; depth++ {
							for seed := uint64(1); seed <= 3; seed++ {
								b, st := newWindowedPath(t, enc, top)
								got := backendtest.RunScriptWindowed(t, b, script, backendtest.IdentityAddr, depth, seed, nil)
								compareRuns(t, "serial", ref, fmt.Sprintf("depth %d seed %d", depth, seed), got)
								if depth == 1 && memoryDigest(serialStore, g.Buckets()) != memoryDigest(st, g.Buckets()) {
									t.Fatalf("depth 1 (seed %d) left different sealed bytes than the serial run", seed)
								}
								if n := b.Counters().StashOverflow; n != 0 {
									t.Fatalf("depth %d seed %d: %d stash overflows", depth, seed, n)
								}
							}
						}
					})
				}
			})
		}
	}
}

// memoryDigest hashes every sealed bucket of st with its index.
func memoryDigest(st mem.Backend, buckets uint64) string {
	h := sha256.New()
	var hdr [16]byte
	for idx := uint64(0); idx < buckets; idx++ {
		raw := adversary.Inspect(st, idx)
		binary.BigEndian.PutUint64(hdr[:8], idx)
		binary.BigEndian.PutUint64(hdr[8:], uint64(len(raw)))
		h.Write(hdr[:])
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTreetopOffLeavesPinnedMemory: with the treetop off the path backend is
// the controller it was before it had one, to the byte. The digests are of
// the sealed memory the differential scripts left behind at the commit
// before the treetop cache, under the harness's fixed key.
func TestTreetopOffLeavesPinnedMemory(t *testing.T) {
	g := backendtest.Geom(t)
	for _, tc := range []struct {
		seed       uint64
		ops        int
		slots      uint64
		enc        bool
		wantDigest string
	}{
		{101, 3000, 96, true, "75cfc8114a5d9704c1520b28082c8d1d1299b4c53c029dc79d37c075b650c253"},
		{101, 3000, 96, false, "1a362bf0b735848e0d5b0598a99ff2cc466ce9f48925e40cca72727a07e27d9a"},
		{223, 2500, 6, true, "a4bdff82c6257cf38ce24375404d65269f398ca307da7075b04546721bf5bb90"},
	} {
		st := mem.NewStore()
		b := backendtest.Kinds()[0].New(t, g, backendtest.Options{Store: st, Encrypted: tc.enc, TreetopBytes: -1})
		backendtest.RunScript(t, b, backendtest.GenScript(tc.seed, tc.ops, tc.slots, g.Leaves(), g.BlockBytes), backendtest.IdentityAddr)
		if got := memoryDigest(st, g.Buckets()); got != tc.wantDigest {
			t.Errorf("script seed %d enc=%v: memory digest %s, pinned %s", tc.seed, tc.enc, got, tc.wantDigest)
		}
	}
}
