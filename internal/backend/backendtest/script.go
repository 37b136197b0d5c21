package backendtest

// Deterministic op scripts. A script is generated once as a pure function
// of a seed and then replayed — against one backend to check results
// against a flat model, against two backends to prove result equivalence,
// or twice against the same backend kind under an address permutation to
// prove the untrusted I/O trace does not depend on logical addresses.
//
// Scripts speak in SLOTS, not addresses: the replay maps each slot
// through an injectable addrOf function, so two runs can disagree about
// every logical address while agreeing about everything public (the op
// schedule and the leaf sequence). Scripts respect the frontend
// discipline the real position-map frontends maintain: a read-removed
// slot is appended back before its next access, and appends never target
// a live slot.

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"

	"freecursive/internal/backend"
)

// OpKind enumerates script operations.
type OpKind int

// Script operation kinds.
const (
	OpRead OpKind = iota
	OpWrite
	OpReadRmv
	OpAppend
	OpUpdate
)

// Op is one scripted access. Leaf and NewLeaf are fixed at generation
// time so every replay presents the identical leaf sequence.
type Op struct {
	Kind    OpKind
	Slot    uint64
	Leaf    uint64
	NewLeaf uint64
	Data    []byte // write/append/update payload
}

// StepResult records what one scripted access returned, for differential
// comparison between backends.
type StepResult struct {
	Found bool
	Data  []byte
}

// GenScript produces ops scripted accesses over slots logical slots with
// the given leaf space and payload size, deterministically from seed.
func GenScript(seed uint64, ops int, slots, leaves uint64, blockBytes int) []Op {
	rng := rand.New(rand.NewPCG(seed, seed^0xdead))
	leaf := map[uint64]uint64{} // slot -> current leaf (present = live)
	held := map[uint64]bool{}   // slot -> read-removed, frontend holds it
	script := make([]Op, 0, ops)

	payload := func(tag uint64) []byte {
		p := make([]byte, blockBytes)
		for i := range p {
			p[i] = byte(tag + uint64(i)*7)
		}
		return p
	}

	for i := 0; i < ops; i++ {
		slot := rng.Uint64() % slots
		nl := rng.Uint64() % leaves
		cur, live := leaf[slot]
		if !live {
			cur = rng.Uint64() % leaves
		}
		if held[slot] {
			script = append(script, Op{Kind: OpAppend, Slot: slot, Leaf: nl, Data: payload(uint64(i))})
			leaf[slot] = nl
			delete(held, slot)
			continue
		}
		switch rng.IntN(10) {
		case 0, 1, 2, 3:
			script = append(script, Op{Kind: OpRead, Slot: slot, Leaf: cur, NewLeaf: nl})
			leaf[slot] = nl
		case 4, 5, 6, 7:
			script = append(script, Op{Kind: OpWrite, Slot: slot, Leaf: cur, NewLeaf: nl, Data: payload(uint64(i))})
			leaf[slot] = nl
		case 8:
			if !live {
				script = append(script, Op{Kind: OpRead, Slot: slot, Leaf: cur, NewLeaf: nl})
				leaf[slot] = nl
				continue
			}
			script = append(script, Op{Kind: OpReadRmv, Slot: slot, Leaf: cur})
			delete(leaf, slot)
			held[slot] = true
		case 9:
			script = append(script, Op{Kind: OpUpdate, Slot: slot, Leaf: cur, NewLeaf: nl, Data: payload(uint64(i) | 1<<32)})
			leaf[slot] = nl
		}
	}
	return script
}

// IdentityAddr maps each slot to itself.
func IdentityAddr(slot uint64) uint64 { return slot }

// PermutedAddr maps slots through an injective affine map (odd
// multiplier), scattering them across a wide address range — every
// logical address differs from the identity mapping, while everything
// public (op schedule, leaf sequence) stays the same. The
// adversary-visible question is exactly: do different logical addresses
// produce a different I/O trace?
func PermutedAddr(slot uint64) uint64 {
	return (slot*2862933555777941757 + 3037000493) % (1 << 40)
}

// replay is one script replay in progress: the flat model the results are
// checked against and the results recorded so far. Requests are built when
// an op is issued and checked when it completes, so the same code serves a
// backend that does both in one Access and one that keeps a window of
// accesses in flight (completions come in issue order either way, which is
// the order the model advances in).
type replay struct {
	t       testing.TB
	blockB  int
	addrOf  func(uint64) uint64
	model   map[uint64][]byte // slot -> payload
	results []StepResult
}

func newReplay(t testing.TB, b backend.Backend, script []Op, addrOf func(uint64) uint64) *replay {
	return &replay{
		t: t, blockB: b.Geometry().BlockBytes, addrOf: addrOf,
		model: map[uint64][]byte{}, results: make([]StepResult, len(script)),
	}
}

func (r *replay) full(data []byte) []byte {
	out := make([]byte, r.blockB)
	copy(out, data)
	return out
}

// request builds script op i's backend request. An update's callback reads
// the model when the backend calls it, i.e. as the access completes.
func (r *replay) request(i int, op Op) backend.Request {
	addr := r.addrOf(op.Slot)
	switch op.Kind {
	case OpWrite:
		return backend.Request{Op: backend.OpWrite, Addr: addr, Leaf: op.Leaf, NewLeaf: op.NewLeaf, Data: op.Data}
	case OpReadRmv:
		return backend.Request{Op: backend.OpReadRmv, Addr: addr, Leaf: op.Leaf}
	case OpAppend:
		return backend.Request{Op: backend.OpAppend, Addr: addr, Leaf: op.Leaf, Data: op.Data}
	case OpUpdate:
		return backend.Request{Op: backend.OpRead, Addr: addr, Leaf: op.Leaf, NewLeaf: op.NewLeaf,
			Update: func(old []byte, found bool) []byte {
				if want, exists := r.model[op.Slot]; exists && (!found || !bytes.Equal(old, want)) {
					r.t.Errorf("op %d update slot %d: old payload mismatch", i, op.Slot)
				}
				return op.Data
			}}
	default:
		return backend.Request{Op: backend.OpRead, Addr: addr, Leaf: op.Leaf, NewLeaf: op.NewLeaf}
	}
}

// check verifies script op i's result against the model, advances the
// model and records the result as step i (an append may be checked while
// older accesses are still in flight).
func (r *replay) check(i int, op Op, res backend.Result, err error) {
	r.t.Helper()
	if err != nil {
		r.t.Fatalf("op %d (kind %d) slot %d: %v", i, op.Kind, op.Slot, err)
	}
	want, exists := r.model[op.Slot]
	switch op.Kind {
	case OpRead, OpReadRmv:
		if exists != res.Found {
			r.t.Fatalf("op %d (kind %d) slot %d: found=%v want %v", i, op.Kind, op.Slot, res.Found, exists)
		}
		if exists && !bytes.Equal(res.Data, want) {
			r.t.Fatalf("op %d (kind %d) slot %d: payload mismatch", i, op.Kind, op.Slot)
		}
		switch {
		case op.Kind == OpReadRmv:
			delete(r.model, op.Slot)
		case !exists:
			r.model[op.Slot] = make([]byte, r.blockB)
		}
	case OpWrite, OpAppend, OpUpdate:
		r.model[op.Slot] = r.full(op.Data)
	}
	r.results[i] = StepResult{Found: res.Found, Data: bytes.Clone(res.Data)}
}

// sweep drains maintenance, then reads back every live slot in ascending
// slot order (deterministic across replays), so untrusted-resident copies
// are verified too.
func (r *replay) sweep(b backend.Backend, script []Op) []StepResult {
	r.t.Helper()
	Drain(r.t, b)
	state := FinalLeaves(script)
	for slot, last := uint64(0), maxSlot(script); slot <= last; slot++ {
		leaf, live := state[slot]
		if !live {
			continue
		}
		res, err := b.Access(backend.Request{Op: backend.OpRead, Addr: r.addrOf(slot), Leaf: leaf, NewLeaf: leaf})
		if err != nil {
			r.t.Fatalf("sweep slot %d: %v", slot, err)
		}
		want := r.model[slot]
		if !res.Found || !bytes.Equal(res.Data, want) {
			r.t.Fatalf("sweep slot %d: found=%v equal=%v", slot, res.Found, bytes.Equal(res.Data, want))
		}
		r.results = append(r.results, StepResult{Found: res.Found, Data: bytes.Clone(res.Data)})
	}
	return r.results
}

// RunScript replays script against b, mapping slots through addrOf,
// verifying every result against a flat in-memory model, and recording
// each step's (Found, payload) pair. After the script it drains
// maintenance and sweeps every live slot in ascending order (still
// deterministic), so untrusted-resident copies are verified too.
func RunScript(t testing.TB, b backend.Backend, script []Op, addrOf func(uint64) uint64) []StepResult {
	t.Helper()
	r := newReplay(t, b, script, addrOf)
	for i, op := range script {
		res, err := b.Access(r.request(i, op))
		r.check(i, op, res, err)
	}
	return r.sweep(b, script)
}

// Windowed is a backend whose path accesses can be begun and completed
// separately, several in flight at once (backend.PathORAM over a
// split-phase memory).
type Windowed interface {
	backend.Backend
	Begin(req backend.Request) error
	Complete() (backend.Result, error)
	InFlight() int
}

// RunScriptWindowed is RunScript through Begin and Complete with up to
// depth accesses in flight. Whether the next step begins an access or
// completes the oldest is drawn from seed, except where the frontend
// discipline decides: an append waits for its slot's readrmv to complete
// (the frontend holds the block by then) and goes straight to the stash
// while other accesses stay in flight. drained, if non-nil, runs every time
// the window empties. Results are recorded in issue order, which is the
// order they complete in, so a run compares step for step with RunScript's.
func RunScriptWindowed(t testing.TB, b Windowed, script []Op, addrOf func(uint64) uint64,
	depth int, seed uint64, drained func()) []StepResult {
	t.Helper()
	r := newReplay(t, b, script, addrOf)
	rng := rand.New(rand.NewPCG(seed, uint64(depth)))
	var flying []int // script indices begun and not completed, oldest first
	complete := func() {
		i := flying[0]
		flying = flying[1:]
		res, err := b.Complete()
		r.check(i, script[i], res, err)
		if len(flying) == 0 && drained != nil {
			drained()
		}
	}
	for i, op := range script {
		if op.Kind == OpAppend {
			for slices.ContainsFunc(flying, func(j int) bool { return script[j].Slot == op.Slot }) {
				complete()
			}
			res, err := b.Access(r.request(i, op))
			r.check(i, op, res, err)
			continue
		}
		for len(flying) == depth || (len(flying) > 0 && rng.IntN(3) == 0) {
			complete()
		}
		if err := b.Begin(r.request(i, op)); err != nil {
			t.Fatalf("op %d begin slot %d: %v", i, op.Slot, err)
		}
		flying = append(flying, i)
	}
	for len(flying) > 0 {
		complete()
	}
	if n := b.InFlight(); n != 0 {
		t.Fatalf("%d accesses still in flight after the script", n)
	}
	return r.sweep(b, script)
}

// FinalLeaves computes, per slot, the leaf each live slot is mapped to
// after the whole script (read-removed slots are absent).
func FinalLeaves(script []Op) map[uint64]uint64 {
	state := map[uint64]uint64{}
	for _, op := range script {
		switch op.Kind {
		case OpReadRmv:
			delete(state, op.Slot)
		case OpAppend:
			state[op.Slot] = op.Leaf
		default:
			state[op.Slot] = op.NewLeaf
		}
	}
	return state
}

func maxSlot(script []Op) uint64 {
	var m uint64
	for _, op := range script {
		if op.Slot > m {
			m = op.Slot
		}
	}
	return m
}
