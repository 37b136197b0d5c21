// Package memtest is the test side of untrusted memory: one decorator, Mem,
// through which a test plays the active adversary of §2 against any
// mem.Backend — tapping and altering path traffic in flight, failing it on
// a schedule or on demand — while the memory itself only serves paths.
package memtest

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	"freecursive/internal/bucketwire"
	"freecursive/internal/mem"
)

// Schedule is a deterministic fault plan: the same Schedule over the same
// operation sequence fails the same operations.
type Schedule struct {
	// Seed drives ErrProb's draws.
	Seed uint64
	// FailEvery, when nonzero, fails every FailEvery-th data operation.
	FailEvery uint64
	// ErrProb, when nonzero, fails each data operation with this
	// probability.
	ErrProb float64
	// PartialPath, when > 0, makes an injected ReadPath failure a mid-path
	// one: the first PartialPath buckets are served into out before the
	// error returns, as a torn transport would leave them.
	PartialPath int
	// DisconnectEvery, when nonzero and the memory can be bounced (Remote),
	// drops its connection before every DisconnectEvery-th data operation;
	// the operation itself then proceeds over a redialed connection.
	DisconnectEvery uint64
}

// Mem decorates a memory with everything a test does to it from outside.
// Disarmed and unhooked it is a transparent pass-through: the same bytes,
// the same Stats, and split-phase reads exactly when the memory has them.
//
// The data operations are Read, Write, ReadPath, WritePath and
// IssueReadPath. Each is counted in Ops and may be failed — by Armed,
// ArmedWrites or the Schedule — with an error wrapping mem.ErrIO, in which
// case it never reaches the memory (but for a PartialPath prefix). The
// embedded Backend is the memory at rest: reach it directly to inspect or
// tamper with buckets behind the decorator's back.
type Mem struct {
	mem.Backend

	// OnRead sees each bucket the memory served, once per bucket in idxs
	// order, and what it returns is what the caller gets. OnWrite sees each
	// bucket on its way in, and what it returns is what lands. data may be
	// nil (absent, or a deletion) and may be the memory's own scratch, so a
	// hook must not call back into the memory while holding it.
	OnRead, OnWrite func(idx uint64, data []byte) []byte
	// Trace is the wiretap: called per bucket, in the order the memory is
	// asked, with bucketwire.OpReadPath when a read leaves and
	// bucketwire.OpWritePath when a write does.
	Trace func(op byte, idx uint64)
	// Schedule plans injected faults; set it before the first operation.
	Schedule Schedule
	// Armed fails every data operation, ArmedWrites every write, until
	// cleared: the toggle fails exactly the operation a test means to.
	Armed, ArmedWrites bool
	// Capture makes the decorator report a ReadSignal over a memory that
	// cannot split, so a controller issues split-phase reads to it. Over
	// such a memory an issued read copies the buckets as they are then —
	// what a remote memory applying requests in order would answer — and
	// completion hands the oldest copy over, so a read issued before a
	// WritePath never sees it. Set it before the memory is handed to a
	// controller.
	Capture bool

	// Ops counts data operations attempted, failed ones included.
	Ops uint64

	split    mem.SplitPathReader // the memory's own, if it can split
	rng      *rand.Rand
	wireBufs [][]byte   // WritePath payloads after OnWrite
	issued   [][][]byte // captured reads, oldest first
	signal   chan struct{}
}

// Wrap decorates inner, disarmed and unhooked.
func Wrap(inner mem.Backend) *Mem {
	m := &Mem{Backend: inner, signal: make(chan struct{}, 1)}
	if sp, ok := inner.(mem.SplitPathReader); ok && sp.ReadSignal() != nil {
		m.split = sp
	}
	return m
}

// step counts a data operation and decides its fate: an error means it
// must not reach the memory.
func (m *Mem) step(write bool) error {
	m.Ops++
	s := &m.Schedule
	if m.rng == nil {
		m.rng = rand.New(rand.NewPCG(s.Seed, 0x6d656d74657374))
	}
	if s.DisconnectEvery > 0 && m.Ops%s.DisconnectEvery == 0 {
		if b, ok := m.Backend.(interface{ Bounce() error }); ok {
			if err := b.Bounce(); err != nil {
				return fmt.Errorf("memtest: injected disconnect at op %d: %w: %w", m.Ops, mem.ErrIO, err)
			}
		}
	}
	if m.Armed || write && m.ArmedWrites ||
		s.FailEvery > 0 && m.Ops%s.FailEvery == 0 ||
		s.ErrProb > 0 && m.rng.Float64() < s.ErrProb {
		return fmt.Errorf("memtest: injected fault at op %d: %w", m.Ops, mem.ErrIO)
	}
	return nil
}

func (m *Mem) trace(op byte, idxs ...uint64) {
	if m.Trace != nil {
		for _, idx := range idxs {
			m.Trace(op, idx)
		}
	}
}

func (m *Mem) onRead(idxs []uint64, out [][]byte) {
	if m.OnRead != nil {
		for i, idx := range idxs {
			out[i] = m.OnRead(idx, out[i])
		}
	}
}

// Read implements mem.Backend.
//
//oram:offhotpath test double: faults and hooks for tests, not a serving path
func (m *Mem) Read(idx uint64) ([]byte, error) {
	if err := m.step(false); err != nil {
		return nil, err
	}
	m.trace(bucketwire.OpReadPath, idx)
	data, err := m.Backend.Read(idx)
	if err == nil && m.OnRead != nil {
		data = m.OnRead(idx, data)
	}
	return data, err
}

// Write implements mem.Backend.
//
//oram:offhotpath test double: faults and hooks for tests, not a serving path
func (m *Mem) Write(idx uint64, data []byte) error {
	if err := m.step(true); err != nil {
		return err
	}
	m.trace(bucketwire.OpWritePath, idx)
	if m.OnWrite != nil {
		data = m.OnWrite(idx, data)
	}
	return m.Backend.Write(idx, data)
}

// ReadPath implements mem.PathReader. An injected failure under
// Schedule.PartialPath serves that many leading buckets first and leaves
// the rest of out untouched.
//
//oram:offhotpath test double: faults and hooks for tests, not a serving path
func (m *Mem) ReadPath(idxs []uint64, out [][]byte) error {
	if err := m.step(false); err != nil {
		if n := min(m.Schedule.PartialPath, len(idxs)); n > 0 {
			if perr := m.readPath(idxs[:n], out[:n]); perr != nil {
				return perr
			}
		}
		return err
	}
	return m.readPath(idxs, out)
}

func (m *Mem) readPath(idxs []uint64, out [][]byte) error {
	m.trace(bucketwire.OpReadPath, idxs...)
	if err := m.Backend.ReadPath(idxs, out); err != nil {
		return err
	}
	m.onRead(idxs, out)
	return nil
}

// WritePath implements mem.PathWriter. OnWrite's results are staged in
// buffers of the decorator's, so the caller's slices stay its own.
//
//oram:offhotpath test double: faults and hooks for tests, not a serving path
func (m *Mem) WritePath(idxs []uint64, data [][]byte) error {
	if err := m.step(true); err != nil {
		return err
	}
	m.trace(bucketwire.OpWritePath, idxs...)
	if m.OnWrite != nil {
		m.wireBufs = m.wireBufs[:0]
		for i, idx := range idxs {
			m.wireBufs = append(m.wireBufs, m.OnWrite(idx, data[i]))
		}
		data = m.wireBufs
	}
	return m.Backend.WritePath(idxs, data)
}

// IssueReadPath implements mem.SplitPathReader: issuing is the data
// operation (an injected fault means the read never left).
//
//oram:offhotpath test double: it copies every bucket it captures, by design
func (m *Mem) IssueReadPath(idxs []uint64) error {
	if err := m.step(false); err != nil {
		return err
	}
	m.trace(bucketwire.OpReadPath, idxs...)
	if m.split != nil {
		return m.split.IssueReadPath(idxs)
	}
	path := make([][]byte, len(idxs))
	if err := m.Backend.ReadPath(idxs, path); err != nil {
		return err
	}
	for i, b := range path {
		path[i] = bytes.Clone(b) // keeps nil (absent) apart from empty
	}
	m.issued = append(m.issued, path)
	select {
	case m.signal <- struct{}{}:
	default:
	}
	return nil
}

// CompleteReadPath implements mem.SplitPathReader; OnRead runs here, as
// the buckets reach the caller.
//
//oram:offhotpath test double: faults and hooks for tests, not a serving path
func (m *Mem) CompleteReadPath(idxs []uint64, out [][]byte) error {
	if m.split != nil {
		if err := m.split.CompleteReadPath(idxs, out); err != nil {
			return err
		}
	} else {
		if len(m.issued) == 0 {
			return fmt.Errorf("memtest: no path read in flight to complete: %w", mem.ErrIO)
		}
		path := m.issued[0]
		m.issued = m.issued[:copy(m.issued, m.issued[1:])]
		if len(path) != len(idxs) {
			return fmt.Errorf("memtest: completing %d buckets of a %d-bucket read: %w", len(idxs), len(path), mem.ErrIO)
		}
		copy(out, path)
	}
	m.onRead(idxs, out)
	return nil
}

// ReadReady implements mem.SplitPathReader: a capture is ready at once.
func (m *Mem) ReadReady() bool {
	if m.split != nil {
		return m.split.ReadReady()
	}
	return len(m.issued) > 0
}

// ReadSignal implements mem.SplitPathReader: the memory's own signal, the
// capture's, or nil when neither can split.
func (m *Mem) ReadSignal() <-chan struct{} {
	if m.split != nil {
		return m.split.ReadSignal()
	}
	if m.Capture {
		return m.signal
	}
	return nil
}

var (
	_ mem.Backend         = (*Mem)(nil)
	_ mem.SplitPathReader = (*Mem)(nil)
)
