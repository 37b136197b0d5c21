// Package backend implements the Path ORAM Backend of §3.1: the ORAM tree
// in untrusted memory, the stash, path reads/writes with greedy eviction,
// and the readrmv/append operations (§4.2.2) that the PLB frontend needs.
//
// Two implementations are provided:
//
//   - PathORAM: fully functional. Blocks hold real payloads, buckets are
//     sealed with probabilistic encryption and stored in any mem.Backend
//     (in-process map, durable page file, or a remote bucketd)
//     — all but the top levels of the tree, which a treetop cache keeps in
//     trusted memory, so an access moves only the rest of its path —
//     and an active adversary can tamper with the stored bytes, in flight
//     or at rest, from outside that memory. Tampered, torn, or undecryptable buckets never
//     error at this layer: their blocks simply vanish (or decode to
//     garbage), which PMMAC-enabled frontends detect via counters while
//     non-integrity schemes — by design, per §6 — silently lose the data.
//     Errors are reserved for real I/O faults from the mem.Backend.
//   - Accounting: bandwidth-accounting only. Payloads are kept in a flat
//     map (so frontends above it still behave exactly as they would over a
//     real tree) but no tree is materialized; bytes moved are computed
//     analytically. This enables the paper's 16 GB and 64 GB capacity
//     points (Figure 7) on a laptop.
//
// Accounting charges the paper's hardware model, a full path per access;
// PathORAM charges the buckets it moved. The two are identical when the
// treetop is off (Config.TreetopBytes < 0), and experiments may then use
// either interchangeably.
package backend

import (
	"errors"
	"fmt"

	"freecursive/internal/mem"
	"freecursive/internal/stats"
	"freecursive/internal/tree"
)

// Op enumerates backend operations (§3.1 read/write, §4.2.2 readrmv/append).
type Op int

const (
	// OpRead fetches a block and leaves it in the stash remapped to NewLeaf.
	OpRead Op = iota
	// OpWrite is OpRead plus replacement of the payload with Request.Data.
	OpWrite
	// OpReadRmv fetches a block and removes it from the ORAM entirely; the
	// caller (the PLB) becomes responsible for it.
	OpReadRmv
	// OpAppend inserts a block into the stash without any tree access. Legal
	// only for blocks previously read-removed (Observation 2).
	OpAppend
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpReadRmv:
		return "readrmv"
	case OpAppend:
		return "append"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Request describes one backend access.
type Request struct {
	Op      Op
	Addr    uint64 // logical block address (PosMap blocks use i||a_i tags)
	Leaf    uint64 // current leaf: the path to read (or, for append, the leaf the block carries)
	NewLeaf uint64 // leaf to remap to (OpRead/OpWrite)
	// Data is the payload for OpWrite/OpAppend; shorter payloads are
	// zero-extended to the block size. It must not alias a previous
	// Result.Data (copy first): the backend reuses that buffer.
	Data []byte
	// Update, if non-nil, transforms the fetched payload before it re-enters
	// the stash (read-modify-write, used to update leaves inside PosMap
	// blocks in one access). found reports whether the block existed; a
	// fresh (never-written) block arrives as a zero payload. Applied for
	// OpRead only.
	Update func(old []byte, found bool) []byte
	// PosMap marks the access as PosMap traffic for byte attribution.
	PosMap bool
}

// Result is what an access returns.
type Result struct {
	// Data is the payload as fetched (before Update/Write replacement). It
	// may be backend-owned scratch, valid only until the next Access on the
	// same backend: callers that retain the payload must copy it.
	Data  []byte
	Found bool // false if the block had never been written (zero block)
}

// Backend is the interface the frontends (internal/core) drive. It captures
// Property 1 of §6.5.2: an access reveals only the leaf and fixed-size
// encrypted data.
type Backend interface {
	Access(req Request) (Result, error)
	Geometry() tree.Geometry
	Counters() *stats.Counters
	// Close releases the untrusted storage behind the tree (a no-op for
	// purely in-memory backends).
	Close() error
}

// FaultLatch makes a functional backend fail-stop on storage faults; both
// constructions embed it. A failed write-back leaves older buckets in
// memory than the trusted state accounts for (and a pipelined memory reports
// it from whatever operation comes next), so carrying on could absorb a
// stale copy of a block, and a snapshot of the trusted state would match no
// memory image. The first error wrapping mem.ErrIO that an access or a
// maintenance step returns is therefore kept: every later access is refused
// with it before touching memory, and core refuses to snapshot.
type FaultLatch struct{ fault error }

// Latch keeps err if it is the first storage fault, and returns it as is.
func (l *FaultLatch) Latch(err error) error {
	if err != nil && l.fault == nil && errors.Is(err, mem.ErrIO) {
		l.fault = err
	}
	return err
}

// Fault returns the error accesses are now refused with, wrapping the
// latched storage fault, or nil if there has been none.
func (l *FaultLatch) Fault() error {
	if l.fault == nil {
		return nil
	}
	return fmt.Errorf("backend: refused after an earlier storage fault: %w", l.fault)
}

// Maintainer is the optional background-maintenance capability a Backend
// may implement (deamortized rebuilds, proactive eviction, compaction).
// The serving layer calls Maintain when its request queue is idle so the
// work drains off the request path; backends also run a bounded inline
// quantum per access, so forgetting to call Maintain costs throughput,
// never correctness.
type Maintainer interface {
	// Maintain performs up to budget units (bucket operations) of pending
	// maintenance — budget <= 0 means one inline quantum — and reports
	// whether work remains. Errors wrap mem.ErrIO and are fail-stop for
	// the controller, exactly like an access-path fault (see FaultLatch).
	Maintain(budget int) (pending bool, err error)
	// MaintainPending reports whether maintenance work is queued, without
	// performing any.
	MaintainPending() bool
}

// WireBucketBytes returns the size of one bucket on the DRAM bus: Z slots of
// (payload + 8-byte packed address/leaf/valid header) plus an 8-byte
// encryption seed, padded up to 512-bit (64-byte) DDR3 bursts, following the
// padding used for the paper's Figure 3.
func WireBucketBytes(g tree.Geometry) uint64 {
	raw := uint64(g.Z)*(uint64(g.BlockBytes)+8) + 8
	return (raw + 63) &^ 63
}

// PathWireBytes returns bytes moved by one full path access (read + write):
// what the paper's controller, and PathORAM with no treetop, moves.
func PathWireBytes(g tree.Geometry) uint64 {
	return 2 * uint64(g.L+1) * WireBucketBytes(g)
}
