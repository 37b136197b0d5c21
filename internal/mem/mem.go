// Package mem models the untrusted external memory holding sealed ORAM
// buckets (§3.1: everything outside the controller's trust boundary).
//
// Storage is pluggable through the Backend interface. Three implementations
// are provided:
//
//   - Store: a paged in-process table. A directory of 256-bucket pages
//     grows to the highest bucket index written (8 B of directory per page,
//     1 MiB at L = 24), a page is allocated on the first write into it, and
//     bucket bytes materialize only when that bucket is written, so trees
//     for multi-gigabyte capacities can be simulated.
//   - FileStore: a fixed-slot bucket page file. Sealed buckets survive
//     process restarts, so a durable controller can resume serving them
//     (see OpenFile for the on-disk format).
//   - Remote (via DialRemote): buckets held by a bucketd server, the
//     untrusted memory as a separate process, reached by path reads and
//     path writes only (a single bucket is a one-bucket path). A slow
//     memory is modelled by the server's round-trip delay
//     (bucketd.Config.RTT), not here.
//
// # Ownership
//
// The buffer-ownership contract is designed so the single-threaded ORAM
// controller above can drive a backend with reusable scratch memory and no
// per-operation allocation:
//
//   - Write does NOT retain data: the backend copies (or persists) what it
//     needs before returning, and the caller is free to reuse the slice for
//     the next bucket. Implementations reuse their own retained buffers
//     across writes of the same bucket.
//   - Read returns memory the caller must NOT retain past the next
//     operation on the same backend, and must treat as read-only — Store
//     hands out its live internal slice, FileStore a reusable I/O scratch
//     buffer. Callers that keep or alter bucket bytes must copy them.
//
// # The adversary
//
// The active adversary of §2 stands outside the memory: it watches and
// alters the traffic between controller and memory, and it reads and
// rewrites memory at rest. Neither is a method here. In flight it is a
// decorator over a Backend (internal/mem/memtest); at rest it is Read (an
// inspection is a clone of what Read returns) and Write (a tamper, or with
// nil a deletion), counted like any other access.
package mem

// Stats is a snapshot of a backend's operation counters and footprint.
type Stats struct {
	Reads  uint64 // buckets read, by Read or a path read
	Writes uint64 // buckets written, by Write or a path write
	Bytes  uint64 // resident payload bytes (Store, Remote) or file size (FileStore)
}

// Backend is pluggable untrusted bucket storage: the interface between the
// ORAM controller (via backend.PathORAM) and wherever sealed buckets
// actually live. Implementations are not safe for concurrent use — each
// serves exactly one single-threaded controller, matching the freecursive
// concurrency contract.
//
// The path — not the bucket — is the unit of untrusted-memory I/O (§3.1:
// one access reads a path and writes a path), so batched path I/O is part
// of the contract: every Backend is a PathReader and a PathWriter, and the
// ORAM backends above move sealed buckets only through those two methods.
// Read and Write remain for tests, tools, decorators and the adversary at
// rest.
//
// See the package comment for the slice-ownership contract every
// implementation must honor.
type Backend interface {
	PathReader
	PathWriter
	// Read returns the sealed bucket at idx, or nil if it has never been
	// written. Errors are I/O faults only — tampered or torn contents are
	// returned as-is for the layers above (decryption, PMMAC) to judge.
	// The returned slice may be backend-owned scratch: it is only valid
	// until the next operation on this backend and must not be modified.
	Read(idx uint64) ([]byte, error)
	// Write stores the sealed bucket at idx. The backend does not retain
	// data; the caller may reuse the slice immediately after Write returns.
	Write(idx uint64, data []byte) error
	// Stats returns operation counts and footprint.
	Stats() Stats
	// Close releases any resources (files, handles). The backend must not
	// be used afterwards. Close on an already-closed backend is a no-op.
	Close() error
}

// Store is sparse in-process untrusted bucket storage: the default Backend.
// Buckets live in a paged table indexed by bucket index — no hashing on the
// per-bucket path — and a page exists only once a bucket in it was written.
type Store struct {
	pages  []*bucketPage // pages[idx/pageBuckets]; nil until first written
	bytes  uint64
	reads  uint64
	writes uint64
}

// pageBuckets is how many buckets one page of a Store holds.
const pageBuckets = 256

// bucketPage holds the buckets of one page; a nil slot was never written
// (or was deleted).
type bucketPage [pageBuckets][]byte

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{}
}

// slot returns the slot of bucket idx, or nil if its page was never written.
//
//oram:hotpath
func (s *Store) slot(idx uint64) *[]byte {
	if p := idx / pageBuckets; p < uint64(len(s.pages)) && s.pages[p] != nil {
		return &s.pages[p][idx%pageBuckets]
	}
	return nil
}

// newPage allocates page p, growing the directory to reach it.
//
//oram:offhotpath runs once per 256 buckets, on the first write into them; the AllocsPerRun gates measure after warm-up
func (s *Store) newPage(p uint64) *bucketPage {
	if n := uint64(len(s.pages)); p >= n {
		s.pages = append(s.pages, make([]*bucketPage, p+1-n)...)
	}
	s.pages[p] = new(bucketPage)
	return s.pages[p]
}

// Read implements Backend. The returned slice is the store's live copy and
// must not be modified by the caller.
//
//oram:hotpath
func (s *Store) Read(idx uint64) ([]byte, error) {
	s.reads++
	if slot := s.slot(idx); slot != nil {
		return *slot, nil
	}
	return nil, nil
}

// Write implements Backend. The store copies data into its own retained
// buffer (reused across writes of the same bucket), so the caller may reuse
// the slice immediately.
//
//oram:hotpath
func (s *Store) Write(idx uint64, data []byte) error {
	s.writes++
	slot := s.slot(idx)
	if slot == nil {
		if data == nil {
			return nil
		}
		slot = &s.newPage(idx / pageBuckets)[idx%pageBuckets]
	}
	old := *slot
	s.bytes -= uint64(len(old))
	if data == nil {
		*slot = nil
		return nil
	}
	s.bytes += uint64(len(data))
	// Copy into the bucket's existing allocation when it fits: the caller
	// keeps ownership of data (it is typically the controller's seal
	// scratch), and steady-state rewrites of a bucket then allocate nothing.
	if old != nil && cap(old) >= len(data) {
		*slot = old[:len(data)]
		copy(*slot, data)
		return nil
	}
	//oramlint:allow hotpathalloc first write of a bucket allocates its backing copy; steady-state rewrites reuse it
	buf := make([]byte, len(data))
	copy(buf, data)
	*slot = buf
	return nil
}

// Stats implements Backend.
func (s *Store) Stats() Stats {
	return Stats{Reads: s.reads, Writes: s.writes, Bytes: s.bytes}
}

// Close implements Backend (no resources to release).
func (s *Store) Close() error { return nil }

var _ Backend = (*Store)(nil)
