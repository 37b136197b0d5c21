package adversary_test

import (
	"math/rand/v2"
	"slices"
	"testing"

	"freecursive/internal/adversary"
	"freecursive/internal/backend"
	"freecursive/internal/backend/backendtest"
	"freecursive/internal/bucketwire"
	"freecursive/internal/crypt"
	"freecursive/internal/mem"
	"freecursive/internal/mem/memtest"
	"freecursive/internal/tree"
)

// maxWindow is the deepest in-flight window driven here: the store's.
const maxWindow = 4

// treetops are the cache depths the window is driven at, over the L=6 tree
// of windowedORAM: none, one the stale band starts under, all but the leaves.
var treetops = []int{0, 3, 6}

// windowedORAM builds a PathORAM over a split-phase memory whose wire is
// tapped: every bucket of every readpath and writepath, in the order the
// memory is asked, tagged with the frame kind so the interleaving of reads
// and write-backs is part of the trace. The top k levels are cached.
func windowedORAM(t *testing.T, scheme crypt.SeedScheme, k int) (*backend.PathORAM, *memtest.Mem, *adversary.IndexTrace) {
	t.Helper()
	g, err := tree.NewGeometry(6, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	c, err := crypt.NewBucketCipher([]byte("0123456789abcdef"), scheme)
	if err != nil {
		t.Fatal(err)
	}
	st, tap := memtest.Wrap(mem.NewStore()), &adversary.IndexTrace{}
	st.Capture = true
	st.Trace = func(op byte, idx uint64) { tap.Note(uint64(op)<<56 | idx) }
	p, err := backend.NewPathORAM(backend.Config{Geometry: g, Store: st, Cipher: c, TreetopBytes: adversary.TreetopBudget(g, k)})
	if err != nil {
		t.Fatal(err)
	}
	return p, st, tap
}

// schedule is an arrival schedule: for each access, how many of the accesses
// in flight complete before it begins. It is drawn without looking at any
// address.
func schedule(n, depth int, seed uint64) []int {
	rng := rand.New(rand.NewPCG(seed, 0x5c4ed))
	out := make([]int, n)
	flying := 0
	for i := range out {
		for flying == depth || (flying > 0 && rng.IntN(3) == 0) {
			out[i]++
			flying--
		}
		flying++
	}
	return out
}

// drive runs reqs through Begin and Complete under sched.
func drive(t *testing.T, p *backend.PathORAM, reqs []backend.Request, sched []int) {
	t.Helper()
	for i, req := range reqs {
		for k := 0; k < sched[i]; k++ {
			if _, err := p.Complete(); err != nil {
				t.Fatalf("complete before access %d: %v", i, err)
			}
		}
		if err := p.Begin(req); err != nil {
			t.Fatalf("begin access %d: %v", i, err)
		}
	}
	for p.InFlight() > 0 {
		if _, err := p.Complete(); err != nil {
			t.Fatal(err)
		}
	}
}

// scriptRequests turns a backendtest script's path accesses into backend
// requests under an address mapping (appends and readrmvs are left out so
// any schedule is legal; the leaves are the script's either way).
func scriptRequests(script []backendtest.Op, addrOf func(uint64) uint64) []backend.Request {
	var reqs []backend.Request
	for _, op := range script {
		switch op.Kind {
		case backendtest.OpRead, backendtest.OpUpdate:
			reqs = append(reqs, backend.Request{Op: backend.OpRead, Addr: addrOf(op.Slot), Leaf: op.Leaf, NewLeaf: op.NewLeaf})
		case backendtest.OpWrite:
			reqs = append(reqs, backend.Request{Op: backend.OpWrite, Addr: addrOf(op.Slot), Leaf: op.Leaf, NewLeaf: op.NewLeaf, Data: op.Data})
		}
	}
	return reqs
}

// TestWindowTraceIsAddressIndependent: two address sequences that agree on
// nothing but what is public — the arrival schedule and the leaf sequence
// (the position map's draws, fixed here by the script) — put the identical
// sequence of bucket indices and frame kinds on the wire, at every window
// depth. Which buckets an access skips as stale, which it leaves empty and
// which seeds it inherits all happen behind that trace. A treetop takes its
// levels off the wire for good — no index of theirs ever shows — and leaves
// the rest of every path there.
func TestWindowTraceIsAddressIndependent(t *testing.T) {
	g, _ := tree.NewGeometry(6, 4, 32)
	var script []backendtest.Op
	for _, op := range backendtest.GenScript(307, 1200, 40, g.Leaves(), g.BlockBytes) {
		if op.Kind != backendtest.OpReadRmv && op.Kind != backendtest.OpAppend {
			script = append(script, op)
		}
	}
	// Without readrmv the generator never orphans a slot, so each slot's
	// leaf chain is intact and both mappings are legal request streams.
	for _, k := range treetops {
		for depth := 1; depth <= maxWindow; depth++ {
			sched := schedule(len(script), depth, uint64(depth))
			var traces [2][]uint64
			for i, addrOf := range []func(uint64) uint64{backendtest.IdentityAddr, backendtest.PermutedAddr} {
				p, _, tap := windowedORAM(t, crypt.SeedGlobal, k)
				drive(t, p, scriptRequests(script, addrOf), sched)
				traces[i] = tap.Indices()
			}
			if want := 2 * len(script) * (g.L + 1 - k); len(traces[0]) != want {
				t.Fatalf("treetop %d, depth %d: %d bucket touches on the wire, want %d (two paths under the treetop per access)", k, depth, len(traces[0]), want)
			}
			if !slices.Equal(traces[0], traces[1]) {
				t.Fatalf("treetop %d, depth %d: the wire trace depends on the addresses", k, depth)
			}
			for _, v := range traces[0] {
				if idx := v & (1<<56 - 1); idx < 1<<uint(k)-1 {
					t.Fatalf("treetop %d, depth %d: cached bucket %d on the wire", k, depth, idx)
				}
			}
		}
	}
}

// TestWindowInterleavingFollowsSchedule: under one schedule and one leaf
// sequence, a burst of accesses that all name the SAME address and a burst
// naming all-distinct addresses interleave their reads and write-backs
// identically — index for index. A second access to an address in flight is
// not held back, reordered or merged; only the schedule decides. A
// different schedule over the same accesses does change the interleaving.
func TestWindowInterleavingFollowsSchedule(t *testing.T) {
	g, _ := tree.NewGeometry(6, 4, 32)
	rng := rand.New(rand.NewPCG(41, 43))
	const n = 300
	leaves := make([]uint64, n+1)
	for i := range leaves {
		leaves[i] = rng.Uint64() % g.Leaves()
	}
	same := make([]backend.Request, n)     // one block chased down its leaf chain
	distinct := make([]backend.Request, n) // a fresh block per access, on the same paths
	for i := range same {
		same[i] = backend.Request{Op: backend.OpRead, Addr: 7, Leaf: leaves[i], NewLeaf: leaves[i+1]}
		distinct[i] = backend.Request{Op: backend.OpRead, Addr: 1000 + uint64(i), Leaf: leaves[i], NewLeaf: leaves[i+1]}
	}
	const k = 3 // cached levels: the paths on the wire are that much shorter
	run := func(reqs []backend.Request, sched []int) []uint64 {
		p, _, tap := windowedORAM(t, crypt.SeedGlobal, k)
		drive(t, p, reqs, sched)
		return tap.Indices()
	}
	kinds := func(trace []uint64) []byte { // frame kind per path, i.e. the interleaving alone
		var out []byte
		for i := 0; i < len(trace); i += g.L + 1 - k {
			out = append(out, byte(trace[i]>>56))
		}
		return out
	}
	for depth := 1; depth <= maxWindow; depth++ {
		sched := schedule(n, depth, 5)
		a, b := run(same, sched), run(distinct, sched)
		if !slices.Equal(a, b) {
			t.Fatalf("depth %d: same-address and all-distinct accesses interleave differently", depth)
		}
		if depth > 1 {
			if other := run(same, schedule(n, depth, 6)); slices.Equal(kinds(a), kinds(other)) {
				t.Fatalf("depth %d: a different schedule left the interleaving unchanged", depth)
			}
			overlapped := false
			for i, k := range kinds(a)[1:] {
				overlapped = overlapped || (k == bucketwire.OpReadPath && kinds(a)[i] == bucketwire.OpReadPath)
			}
			if !overlapped {
				t.Fatalf("depth %d: no two reads ever back to back; the window never filled", depth)
			}
		}
	}
}

// TestWindowNoPadReuse: with the detector on the wire, a windowed run under
// the per-bucket seed scheme never seals one (bucket, seed) pair twice and
// every bucket's seeds climb strictly. A bucket shared by two accesses in
// flight is the case that matters: the later access read it before the
// earlier rewrote it, and resealing from the seed it read would repeat the
// earlier access's pad (§6.4) — it must continue from the seed it inherits.
// Under the global scheme the register is consumed in write order. Both hold
// at every treetop depth: a cached bucket is never sealed at all.
func TestWindowNoPadReuse(t *testing.T) {
	for _, k := range treetops {
		for depth := 1; depth <= maxWindow; depth++ {
			windowNoPadReuse(t, k, depth)
		}
	}
}

func windowNoPadReuse(t *testing.T, k, depth int) {
	g, _ := tree.NewGeometry(6, 4, 32)
	script := backendtest.GenScript(401, 3000, 48, g.Leaves(), g.BlockBytes)
	p, st, _ := windowedORAM(t, crypt.SeedPerBucket, k)
	det := &adversary.PadReuseDetector{}
	det.Install(st)
	backendtest.RunScriptWindowed(t, p, script, backendtest.IdentityAddr, depth, 9, nil)
	if det.Reuses != 0 || det.Regressions != 0 {
		t.Fatalf("per-bucket seeds, treetop %d, depth %d: %d pad reuses, %d seed regressions", k, depth, det.Reuses, det.Regressions)
	}

	p, st, _ = windowedORAM(t, crypt.SeedGlobal, k)
	var last uint64
	outOfOrder := 0
	st.OnWrite = func(_ uint64, data []byte) []byte {
		seed := uint64(0)
		for _, b := range data[:crypt.SeedBytes] {
			seed = seed<<8 | uint64(b)
		}
		if seed <= last {
			outOfOrder++
		}
		last = seed
		return data
	}
	backendtest.RunScriptWindowed(t, p, script, backendtest.IdentityAddr, depth, 9, nil)
	if outOfOrder != 0 {
		t.Fatalf("global seed, treetop %d, depth %d: %d writes out of register order", k, depth, outOfOrder)
	}
}
