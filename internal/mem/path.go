package mem

import (
	"errors"
	"runtime/debug"
)

// ErrIO marks real I/O faults in untrusted memory: a dead connection, a
// failing disk, a server answering errors — anything that prevents the
// backend from serving sealed bytes at all. It is distinct from tampering
// (torn or garbage bucket contents are served as-is for decryption and
// PMMAC to judge): an I/O fault mid-access leaves the controller's state
// unverifiable, so the layers above treat it as fail-stop, like an
// integrity violation but with an operational cause. Backends wrap ErrIO
// into every fault they surface so serving layers can detect the class
// with errors.Is.
var ErrIO = errors.New("untrusted memory I/O fault")

// PathReader is the batched read half of Backend: read every bucket of one
// tree path in a single operation.
//
// ReadPath fills out[i] with the sealed bucket at idxs[i] (nil for a
// never-written bucket); idxs and out have equal length. Unlike Backend.Read
// — whose result is valid only until the next operation — ALL returned
// slices are simultaneously valid until the next operation on the backend,
// so the controller can absorb the whole path before touching memory again.
// The slices are still backend-owned scratch: read-only, not to be retained
// past the next operation.
//
// Semantics match a serial loop of Reads in idxs order exactly: the same
// bytes, one read counted per bucket. The point of the interface is cost,
// not behavior — a remote backend serves the whole path in one round trip
// instead of len(idxs) sequential ones.
type PathReader interface {
	ReadPath(idxs []uint64, out [][]byte) error
}

// PathWriter is the batched write half of Backend: write every bucket of
// one tree path in a single operation.
//
// WritePath stores data[i] at idxs[i]; like Backend.Write it does NOT
// retain the slices — the caller may reuse them as soon as it returns.
// Semantics match a serial loop of Writes in idxs order (one write counted
// per bucket), but an implementation may pipeline
// the operation: return before the data is acknowledged remotely, and
// surface a failed acknowledgement (wrapping ErrIO) from a LATER operation
// on the backend. The controller treats any access-loop error as fail-stop,
// so deferred failure detection costs nothing in safety and hides a full
// round trip per access.
type PathWriter interface {
	WritePath(idxs []uint64, data [][]byte) error
}

// SplitPathReader is the split-phase form of PathReader, for memories where
// a path read is a round trip worth overlapping with other work: the read is
// ISSUED (the request leaves now) and COMPLETED later (the buckets are handed
// over), and several may be in flight at once. Reads complete strictly in
// issue order, and the memory applies everything — issued reads and
// WritePaths alike — in the order the calls were made, so a read issued
// before a WritePath never observes it: the caller owns that staleness
// (backend.PathORAM's in-flight window is the one caller).
//
// Only memories that gain from it implement it (Remote). A decorator that
// forwards it over a memory that cannot split reports a nil ReadSignal, and
// callers then fall back to ReadPath.
type SplitPathReader interface {
	// IssueReadPath sends the read of idxs and returns without waiting.
	IssueReadPath(idxs []uint64) error
	// CompleteReadPath delivers the oldest issued read, which must have been
	// issued for idxs, exactly as ReadPath would have: same counters, same
	// slice ownership. It waits for the answer if it has not
	// arrived yet.
	CompleteReadPath(idxs []uint64, out [][]byte) error
	// ReadReady reports whether CompleteReadPath would return without
	// waiting: the oldest issued read has fully arrived, has failed, or is
	// overdue (CompleteReadPath then fails at once).
	ReadReady() bool
	// ReadSignal returns a channel that receives after something happened
	// that may have made ReadReady true — a frame arrived, or the deadline of
	// the one awaited passed, so a caller sleeping on it is never stranded. A signal is a hint to ask
	// ReadReady again, never a promise; it is the same channel for the
	// memory's whole life.
	ReadSignal() <-chan struct{}
}

// ReadPath implements PathReader with a loop over Read. The in-process
// store's Read returns live bucket slices, which all remain valid while no write
// happens — exactly the simultaneous-validity guarantee ReadPath adds.
func (s *Store) ReadPath(idxs []uint64, out [][]byte) error {
	for i, idx := range idxs {
		data, err := s.Read(idx)
		if err != nil {
			return err
		}
		//oramlint:allow bufferown Store.Read returns live bucket slices from its page table; simultaneous validity until the next write is exactly the PathReader guarantee this method provides
		out[i] = data
	}
	return nil
}

// ReadPath implements PathReader. Each bucket is copied into its own
// per-level scratch buffer (grown once, then reused across paths), inside the
// one fault guard of the call: FileStore.Read's single scratch would alias
// every level to the last one read, and slices of the mapping itself would
// fault in the caller's decryption, outside the guard.
func (s *FileStore) ReadPath(idxs []uint64, out [][]byte) (err error) {
	defer s.guard(debug.SetPanicOnFault(true), &err)
	for len(s.pathBufs) < len(idxs) {
		//oramlint:allow hotpathalloc per-level scratch grows once on the first full-depth path, then is reused for every later path
		s.pathBufs = append(s.pathBufs, make([]byte, s.slotBytes))
	}
	for i, idx := range idxs {
		s.reads++
		data, err := s.loadInto(idx, s.pathBufs[i])
		if err != nil {
			return err
		}
		out[i] = data
	}
	return nil
}

// WritePath implements PathWriter with a loop over Write, which already
// copies each bucket into store-owned memory.
func (s *Store) WritePath(idxs []uint64, data [][]byte) error {
	for i, idx := range idxs {
		if err := s.Write(idx, data[i]); err != nil {
			return err
		}
	}
	return nil
}

// WritePath implements PathWriter: every bucket copied into its slot of the
// mapping under the one fault guard of the call.
func (s *FileStore) WritePath(idxs []uint64, data [][]byte) (err error) {
	defer s.guard(debug.SetPanicOnFault(true), &err)
	for i, idx := range idxs {
		s.writes++
		if err := s.store(idx, data[i]); err != nil {
			return err
		}
	}
	return nil
}
