package backendtest

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"freecursive/internal/adversary"
	"freecursive/internal/backend"
	"freecursive/internal/mem"
	"freecursive/internal/mem/memtest"
)

// RunConformance runs the full backend-level conformance suite against
// one Kind. Every subtest holds the implementation to the backend.Backend
// contract the frontends rely on; none of them knows which construction
// it is driving.
func RunConformance(t *testing.T, k Kind) {
	t.Run("Correctness", func(t *testing.T) { runCorrectness(t, k) })
	t.Run("Semantics", func(t *testing.T) { runSemantics(t, k) })
	t.Run("ErrStorage", func(t *testing.T) { runErrStorage(t, k) })
	t.Run("MaintenanceFault", func(t *testing.T) { runMaintenanceFault(t, k) })
	t.Run("TamperSafety", func(t *testing.T) { runTamperSafety(t, k) })
	t.Run("TraceInvariance", func(t *testing.T) { runTraceInvariance(t, k) })
	t.Run("Allocs", func(t *testing.T) { runAllocs(t, k) })
}

// runCorrectness checks random frontend-discipline traces against a flat
// model, plaintext and encrypted.
func runCorrectness(t *testing.T, k Kind) {
	for _, enc := range []bool{false, true} {
		t.Run(fmt.Sprintf("enc=%v", enc), func(t *testing.T) {
			g := Geom(t)
			b := k.New(t, g, Options{Encrypted: enc})
			script := GenScript(41, 4000, 120, g.Leaves(), g.BlockBytes)
			RunScript(t, b, script, IdentityAddr)
		})
	}
}

// runSemantics pins the shared contract edges: duplicate appends are
// rejected while append-after-readrmv is the legal re-insertion,
// read-removed blocks stay gone, short writes read back zero-padded, and
// malformed requests (bad leaves, unknown ops) error without mutating.
func runSemantics(t *testing.T, k Kind) {
	g := Geom(t)
	b := k.New(t, g, Options{Encrypted: true})
	acc := func(op backend.Op, addr, lf, nl uint64, data []byte) (backend.Result, error) {
		return b.Access(backend.Request{Op: op, Addr: addr, Leaf: lf, NewLeaf: nl, Data: data})
	}
	// An appended block sits in trusted memory (stash or cache) until
	// evicted; a duplicate append while it is there is a discipline
	// violation both backends must reject.
	if _, err := acc(backend.OpAppend, 1, 3, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := acc(backend.OpAppend, 1, 4, 0, []byte("y")); err == nil {
		t.Fatal("append over a live block succeeded")
	}
	res, err := acc(backend.OpReadRmv, 1, 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Data[0] != 'x' {
		t.Fatal("readrmv did not return the live block")
	}
	if res, err := acc(backend.OpRead, 1, 3, 3, nil); err != nil || res.Found {
		t.Fatalf("block still present after readrmv (err=%v)", err)
	}
	if _, err := acc(backend.OpAppend, 2, 6, 0, []byte("z")); err != nil {
		t.Fatalf("append of fresh block: %v", err)
	}
	res, err = acc(backend.OpRead, 2, 6, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, g.BlockBytes)
	copy(want, "z")
	if !res.Found || string(res.Data) != string(want) {
		t.Fatal("short append not served back zero-padded")
	}

	if _, err := acc(backend.OpRead, 3, g.Leaves(), 0, nil); err == nil {
		t.Fatal("out-of-range leaf accepted")
	}
	if _, err := acc(backend.OpRead, 3, 0, g.Leaves()+7, nil); err == nil {
		t.Fatal("out-of-range new leaf accepted")
	}
	if _, err := acc(backend.OpAppend, 3, g.Leaves()*2, 0, nil); err == nil {
		t.Fatal("append with bad leaf accepted")
	}
	if _, err := acc(backend.Op(42), 3, 0, 0, nil); err == nil {
		t.Fatal("unknown op accepted")
	}
}

// runErrStorage proves the fault contract on the access path: an injected
// untrusted-memory fault — on the read of a path or probe, or on a
// write-back — escapes wrapping mem.ErrIO, and the backend is fail-stop
// from then on (backend.FaultLatch): with memory healthy again every later
// access is refused with an error wrapping the same fault, and not one more
// operation reaches memory.
func runErrStorage(t *testing.T, k Kind) {
	for _, phase := range []string{"ReadPath", "WritePath"} {
		t.Run(phase, func(t *testing.T) {
			g := Geom(t)
			fs := memtest.Wrap(mem.NewStore())
			b := k.New(t, g, Options{Encrypted: true, Store: fs})

			script := GenScript(7, 300, 40, g.Leaves(), g.BlockBytes)
			RunScript(t, b, script, IdentityAddr)
			state := FinalLeaves(script)
			if len(state) == 0 {
				t.Fatal("script left no live blocks")
			}

			// Reads of live slots until memory fails one. A read fault hits
			// the first; a write fault the first write-back, which for the
			// bucket-hash backend is a rebuild step some accesses away.
			fs.Armed, fs.ArmedWrites = phase == "ReadPath", phase == "WritePath"
			var err error
			for round := 0; round < 64 && err == nil; round++ {
				for slot, leaf := range state {
					if _, err = b.Access(backend.Request{Op: backend.OpRead, Addr: slot, Leaf: leaf, NewLeaf: leaf}); err != nil {
						break
					}
				}
			}
			if err == nil {
				t.Fatal("fault was never injected (accesses did no such I/O?)")
			}
			if !errors.Is(err, mem.ErrIO) {
				t.Fatalf("faulted access error does not wrap mem.ErrIO: %v", err)
			}
			fs.Armed, fs.ArmedWrites = false, false
			requireStopped(t, b, fs)
		})
	}
}

// requireStopped asserts b refuses accesses and maintenance with an error
// wrapping mem.ErrIO, reports the fault, and leaves the (healthy) memory
// behind fs alone.
func requireStopped(t *testing.T, b backend.Backend, fs *memtest.Mem) {
	t.Helper()
	ops := fs.Ops
	for _, op := range []backend.Op{backend.OpRead, backend.OpWrite, backend.OpReadRmv, backend.OpAppend} {
		if _, err := b.Access(backend.Request{Op: op, Addr: 9000}); !errors.Is(err, mem.ErrIO) {
			t.Fatalf("%v after a storage fault: %v, want it refused wrapping mem.ErrIO", op, err)
		}
	}
	if m, ok := b.(backend.Maintainer); ok {
		if _, err := m.Maintain(0); !errors.Is(err, mem.ErrIO) {
			t.Fatalf("Maintain after a storage fault: %v, want it refused wrapping mem.ErrIO", err)
		}
	}
	if f, ok := b.(interface{ Fault() error }); !ok || !errors.Is(f.Fault(), mem.ErrIO) {
		t.Fatal("backend does not report the latched fault")
	}
	if fs.Ops != ops {
		t.Fatalf("%d memory operations after the backend stopped", fs.Ops-ops)
	}
}

// runMaintenanceFault proves the same on the maintenance path: a fault
// during deamortized rebuild I/O escapes Maintain wrapping mem.ErrIO and
// stops the backend like an access-path fault.
func runMaintenanceFault(t *testing.T, k Kind) {
	g := Geom(t)
	fs := memtest.Wrap(mem.NewStore())
	// Throttle the inline quantum to one bucket op per access so rebuild
	// work genuinely accumulates behind the schedule — at the default
	// quantum the inline steps keep up and there is nothing left to fault.
	b := k.New(t, g, Options{Encrypted: true, Store: fs, StepBudget: 1})
	m, ok := b.(backend.Maintainer)
	if !ok {
		t.Skip("backend has no maintenance path")
	}

	RunScript(t, b, GenScript(13, 400, 60, g.Leaves(), g.BlockBytes), IdentityAddr)

	// Queue fresh maintenance work, then fault it mid-flight.
	for i := 0; i < 3*CacheCapacity; i++ {
		lf := uint64(i) % g.Leaves()
		if _, err := b.Access(backend.Request{Op: backend.OpWrite, Addr: 5000 + uint64(i%8), Leaf: lf, NewLeaf: lf, Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if !m.MaintainPending() {
		t.Fatal("no maintenance pending after cache-capacity churn")
	}
	fs.Armed = true
	sawErr := false
	for i := 0; i < 64 && m.MaintainPending(); i++ {
		if _, err := m.Maintain(1); err != nil {
			if !errors.Is(err, mem.ErrIO) {
				t.Fatalf("maintenance fault does not wrap mem.ErrIO: %v", err)
			}
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("armed fault store never failed a maintenance step")
	}
	fs.Armed = false
	requireStopped(t, b, fs)
}

// runTamperSafety corrupts all of untrusted memory and checks accesses
// keep completing without panics or errors — privacy property 1: the
// access sequence continues regardless of content; integrity is the
// frontend PMMAC's job (covered by RunSystemConformance).
func runTamperSafety(t *testing.T, k Kind) {
	g := Geom(t)
	st := mem.NewStore()
	b := k.New(t, g, Options{Encrypted: true, Store: st})
	script := GenScript(19, 600, 48, g.Leaves(), g.BlockBytes)
	RunScript(t, b, script, IdentityAddr)

	if (adversary.Garbler{}).GarbleAll(st, 1<<20) == 0 {
		t.Fatal("nothing materialized to corrupt")
	}
	for slot, leaf := range FinalLeaves(script) {
		if _, err := b.Access(backend.Request{Op: backend.OpRead, Addr: slot, Leaf: leaf, NewLeaf: leaf}); err != nil {
			t.Fatalf("access after tamper: %v", err)
		}
	}
	Drain(t, b)
}

// runTraceInvariance is the shared obliviousness check: with the op
// schedule and leaf sequence fixed, the full untrusted I/O trace (reads
// and writes, in order) must be identical under a permutation of every
// logical address. For the tree backend the trace is a function of the
// leaf alone; for the bucket-hash backend it is a function of the leaf
// and the public access count (which drives probe schedules and rebuild
// triggers). Either way: addresses out, trace unchanged.
func runTraceInvariance(t *testing.T, k Kind) {
	g := Geom(t)
	script := GenScript(23, 1500, 80, g.Leaves(), g.BlockBytes)
	trace := func(addrOf func(uint64) uint64) []uint64 {
		tap := &adversary.IndexTrace{}
		st := memtest.Wrap(mem.NewStore())
		st.Trace = func(_ byte, idx uint64) { tap.Note(idx) }
		b := k.New(t, g, Options{Encrypted: true, Store: st})
		RunScript(t, b, script, addrOf)
		return tap.Indices()
	}
	base := trace(IdentityAddr)
	perm := trace(PermutedAddr)
	if len(base) == 0 {
		t.Fatal("script generated no untrusted I/O")
	}
	if len(base) != len(perm) {
		t.Fatalf("trace lengths differ under address permutation: %d vs %d", len(base), len(perm))
	}
	for i := range base {
		if base[i] != perm[i] {
			t.Fatalf("trace diverges at I/O %d: bucket %d vs %d — the untrusted trace depends on logical addresses", i, base[i], perm[i])
		}
	}
}

// runAllocs pins the amortized steady-state allocation budget, with
// maintenance running inline exactly as it does under the serving layer.
// The driver keeps its own leaf bookkeeping (updating existing map keys,
// which does not allocate) so every measured allocation belongs to the
// backend.
func runAllocs(t *testing.T, k Kind) {
	for _, enc := range []bool{false, true} {
		t.Run(fmt.Sprintf("enc=%v", enc), func(t *testing.T) { runAllocsOnce(t, k, enc) })
	}
}

func runAllocsOnce(t *testing.T, k Kind, enc bool) {
	g := Geom(t)
	b := k.New(t, g, Options{Encrypted: enc})
	rng := rand.New(rand.NewPCG(43, 47))
	leaf := map[uint64]uint64{}
	payload := make([]byte, g.BlockBytes)
	const slots = 100
	step := func() {
		addr := rng.Uint64() % slots
		cur, ok := leaf[addr]
		if !ok {
			cur = rng.Uint64() % g.Leaves()
		}
		nl := rng.Uint64() % g.Leaves()
		leaf[addr] = nl
		req := backend.Request{Op: backend.OpRead, Addr: addr, Leaf: cur, NewLeaf: nl}
		if rng.IntN(2) == 0 {
			req.Op = backend.OpWrite
			payload[0] = byte(addr)
			req.Data = payload
		}
		if _, err := b.Access(req); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: materialize every slot, grow free lists and scratch
	// buffers, and (for deamortized backends) reach rebuild steady state.
	for i := 0; i < 3000; i++ {
		step()
	}
	n := testing.AllocsPerRun(800, step)
	if n > k.AllocBudget {
		t.Fatalf("steady-state access allocates %.2f/op, budget %.2f", n, k.AllocBudget)
	}
}
