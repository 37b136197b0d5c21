// Package freecursive is a simulator-grade implementation of Freecursive
// ORAM (Fletcher, Ren, Kwon, van Dijk, Devadas — ASPLOS 2015): Path ORAM
// with a PosMap Lookaside Buffer, compressed PosMap, and PMMAC integrity
// verification. New builds the paper's deployable configuration, PIC_X32,
// and nothing else. The baselines the paper evaluates against live in
// internal/exp (Recursive ORAM and the ablation points, built through
// core.Params) and internal/merkle (the Merkle tree).
//
// The package exposes the LLC-facing view of the ORAM controller: create an
// ORAM with New, then Read and Write fixed-size blocks by address. The
// adversary's view — which tree paths were touched, what bytes moved — is
// available through Stats and the lower-level knobs in Config.
//
// An ORAM can be durable: with Config.DataDir the sealed bucket trees live
// in page files, and Snapshot/Resume carry the controller's (tiny) trusted
// state across processes. See the Snapshot and Resume documentation for
// the crash and tampering semantics.
//
// # Concurrency
//
// An ORAM models a single hardware controller and is NOT safe for
// concurrent use: every access mutates the stash, PLB, and position map,
// so Read, Write, and Stats must be externally serialized. Callers that
// need parallelism should run several instances side by side — the
// controller's trusted state is tiny by design, which is what makes that
// cheap — and partition addresses across them. Package
// freecursive/internal/store does exactly that behind a thread-safe
// Get/Put API.
package freecursive

import (
	"encoding/json"
	"fmt"
	"io"

	"freecursive/internal/backend"
	"freecursive/internal/core"
	"freecursive/internal/crypt"
	"freecursive/internal/mem"
)

// Scheme names the frontend configuration, using the paper's names. PIC,
// the zero value, is the only one New builds.
type Scheme int

// PIC is PIC_X32: PLB + compression + PMMAC — the paper's headline
// configuration, verifying every access for 7% overhead.
const PIC Scheme = 0

// Config parameterizes an ORAM. The zero value of every field takes the
// paper's Table 1 default.
type Config struct {
	// Scheme must be PIC (the zero value). The paper's ablation points —
	// R_X8, P_X16, PC_X32, PI_X8 — build through core.Params.
	Scheme Scheme
	// Backend picks the position-based ORAM construction under the
	// frontend: "path" (default) for the paper's Path ORAM tree, "bhoram"
	// for the Pyramid-style bucket-hash hierarchy with deamortized
	// background rebuilds. Both serve the same API and the same integrity
	// guarantees; the bucket-hash backend benefits from the serving layer
	// draining Maintain when idle.
	Backend string
	// Blocks is the number of protected blocks N (default 2^20).
	Blocks uint64
	// BlockBytes is the block (cache line) size (default 64).
	BlockBytes int
	// PLBBytes sizes the PosMap Lookaside Buffer (default 64 KB).
	PLBBytes int
	// OnChipPosMapBytes bounds the on-chip PosMap; recursion depth follows
	// (default 128 KB).
	OnChipPosMapBytes int
	// StashCapacity bounds the stash (default 200).
	StashCapacity int
	// DataDir, if non-empty, stores the sealed bucket trees in page files
	// under this directory (created if needed) instead of an in-process
	// map: blocks survive Close and process restarts. Pair with Snapshot
	// and Resume to also carry the trusted controller state across runs.
	DataDir string
	// MemAddr, if non-empty, stores the sealed bucket trees on a remote
	// bucketd server at this TCP address: the paper's untrusted memory as a
	// literally separate failure domain. Path reads batch into one round
	// trip and path write-backs pipeline behind the next access; a server
	// fault or lost connection surfaces as an error wrapping ErrStorage
	// (fail-stop), while tampering on the server is detected by PMMAC
	// exactly as for local memory. Requires MemNamespace; incompatible
	// with DataDir.
	MemAddr string
	// MemNamespace isolates this ORAM's buckets on a shared bucketd server.
	// Two live ORAMs must not share one.
	MemNamespace string
	// Seed makes the instance deterministic (default 1).
	Seed uint64
}

// Stats is a snapshot of the controller's counters.
type Stats struct {
	Accesses        uint64  // LLC-level accesses served
	BackendAccesses uint64  // ORAM tree path reads+writes
	BytesMoved      uint64  // total bytes to/from untrusted memory
	PosMapBytes     uint64  // subset of BytesMoved spent on PosMap blocks
	PLBHitRate      float64 // fraction of PLB probes that hit
	GroupRemaps     uint64  // compressed-PosMap group remap events
	MACChecks       uint64  // PMMAC verifications
	Violations      uint64  // integrity violations detected
	StashMax        uint64  // peak stash (or bucket-hash cache) occupancy
	StashOverflow   uint64  // times the stash exceeded its configured capacity
	Rebuilds        uint64  // bucket-hash level rebuilds completed
	RebuildSteps    uint64  // bucket operations performed by rebuild steps
	// TreetopLevels is how many levels of the tree the treetop cache holds
	// and TreetopBytes the trusted memory it fills at most: constants of the
	// configuration (or resumed snapshot).
	TreetopLevels int
	TreetopBytes  uint64
}

// ORAM is an oblivious memory of Blocks fixed-size blocks.
//
// It is not safe for concurrent use: callers must serialize all method
// calls, including Stats (see the package comment's Concurrency section).
type ORAM struct {
	sys *core.System
	fe  *core.PLBFrontend
}

// New builds an ORAM.
func New(cfg Config) (*ORAM, error) {
	if cfg.Scheme != PIC {
		return nil, fmt.Errorf("freecursive: Scheme(%d): New builds PIC only; build other schemes through core.Params", int(cfg.Scheme))
	}
	if cfg.Blocks == 0 {
		cfg.Blocks = 1 << 20
	}
	sys, err := core.Build(core.Params{
		Scheme:            core.SchemePIC,
		Backend:           cfg.Backend,
		NBlocks:           cfg.Blocks,
		DataBytes:         cfg.BlockBytes,
		StashCap:          cfg.StashCapacity,
		OnChipBudgetBytes: cfg.OnChipPosMapBytes,
		PLBCapacityBytes:  cfg.PLBBytes,
		Functional:        true,
		EncScheme:         crypt.SeedGlobal,
		Seed:              cfg.Seed,
		DataDir:           cfg.DataDir,
		MemAddr:           cfg.MemAddr,
		MemNamespace:      cfg.MemNamespace,
	})
	if err != nil {
		return nil, fmt.Errorf("freecursive: %w", err)
	}
	return &ORAM{sys: sys, fe: sys.Frontend.(*core.PLBFrontend)}, nil
}

// BlockBytes returns the block size.
func (o *ORAM) BlockBytes() int { return o.sys.Params.DataBytes }

// Blocks returns the capacity in blocks.
func (o *ORAM) Blocks() uint64 { return o.sys.Params.NBlocks }

// SchemeName returns the paper-style configuration name, e.g. "PIC_X32".
func (o *ORAM) SchemeName() string { return o.sys.Params.Name() }

// Read returns the contents of the block at addr. Never-written blocks read
// as zeros. A tampering adversary causes an error wrapping ErrIntegrity
// and the ORAM refuses further use.
func (o *ORAM) Read(addr uint64) ([]byte, error) {
	return o.fe.Access(addr, false, nil)
}

// Write replaces the block at addr (shorter data is zero-padded) and
// returns its previous contents.
func (o *ORAM) Write(addr uint64, data []byte) ([]byte, error) {
	return o.fe.Access(addr, true, data)
}

// Start and Finish are Read and Write in two halves, for serving layers
// that overlap accesses: Start does everything up to the access's one wait
// on untrusted memory — over remote memory it sends the path read and
// returns — and Finish waits for it and returns the block's (previous)
// contents. Several accesses may be started before the first is finished;
// they finish in the order they were started, each seeing the writes
// started before it. The overlap changes when path reads and write-backs
// reach memory, by the caller's schedule alone; which paths, and what they
// carry, is exactly what Read and Write would have produced.
//
// Wake reports whether overlapping is worth anything. It is nil when an
// access never waits between Start and Finish (local memory, or the
// bucket-hash backend, which cannot split an access): call Finish right
// after Start. Otherwise it is a channel that receives when Ready — Finish
// would return without waiting — may have become true.
//
// A Start that returns an error has no Finish. Data passed to Start is
// consumed before it returns. Snapshot, Maintain and Stats may be called
// with accesses started; the first two complete them first.
func (o *ORAM) Start(addr uint64, write bool, data []byte) error {
	return o.fe.Start(addr, write, data)
}

// Finish returns the result of the oldest started access. See Start.
func (o *ORAM) Finish() ([]byte, error) { return o.fe.Finish() }

// Ready reports whether Finish would return without waiting on memory.
func (o *ORAM) Ready() bool { return o.fe.Ready() }

// Wake returns the channel hinting that Ready may have turned true, or nil
// when accesses never wait between Start and Finish. See Start.
func (o *ORAM) Wake() <-chan struct{} { return o.fe.Wake() }

// Stats returns a snapshot of the controller counters.
func (o *ORAM) Stats() Stats {
	c := o.sys.Counters
	var topLevels int
	var topBytes uint64
	if p, ok := o.sys.Backends[0].(*backend.PathORAM); ok {
		topLevels, topBytes = p.TreetopLevels(), uint64(p.TreetopBytes())
	}
	return Stats{
		Accesses:        c.Accesses,
		BackendAccesses: c.BackendAccesses,
		BytesMoved:      c.TotalBytes(),
		PosMapBytes:     c.PosMapBytes,
		PLBHitRate:      c.PLBHitRate(),
		GroupRemaps:     c.GroupRemap,
		MACChecks:       c.MACChecks,
		Violations:      c.Violations,
		StashMax:        c.StashMax,
		StashOverflow:   c.StashOverflow,
		Rebuilds:        c.Rebuilds,
		RebuildSteps:    c.RebuildSteps,
		TreetopLevels:   topLevels,
		TreetopBytes:    topBytes,
	}
}

// Maintain runs up to budget units of pending background maintenance —
// the bucket-hash backend's deamortized rebuild work (budget <= 0 means
// one inline quantum). Serving layers call it when their request queue is
// idle so rebuilds drain off the request path; skipping it costs
// throughput, never correctness, because every access also runs a bounded
// inline quantum. It reports whether work remains. Errors wrap ErrStorage
// and are fail-stop, exactly like an access-path storage fault. Like every
// other method it must be serialized with Read/Write.
func (o *ORAM) Maintain(budget int) (bool, error) {
	pending, err := o.sys.Maintain(budget)
	if err != nil {
		return pending, fmt.Errorf("freecursive: %w", err)
	}
	return pending, nil
}

// MaintainPending reports whether background maintenance work is queued,
// without performing any.
func (o *ORAM) MaintainPending() bool { return o.sys.MaintainPending() }

// Violation returns the integrity error the controller has latched, or nil
// while it is healthy. Once PMMAC detects tampering the ORAM refuses all
// further accesses with the same error (the paper's processor exception,
// §2); Violation lets serving layers inspect that state without issuing an
// access. Like every other method it must be serialized with Read/Write.
func (o *ORAM) Violation() error { return o.fe.Violation() }

// Close releases the untrusted storage behind the ORAM (bucket page files
// when DataDir is set; a no-op for in-memory trees). Close does NOT write a
// trusted-state snapshot — call Snapshot first for a clean shutdown; a
// Close without one models a crash, after which PMMAC refuses stale blocks
// instead of serving them.
func (o *ORAM) Close() error { return o.sys.Close() }

// Snapshot serializes the controller's trusted state — position map, stash,
// treetop cache, PLB, PMMAC counters, RNG and encryption-seed registers — to
// w (JSON).
// Together with the DataDir bucket files this is everything needed to
// Resume the ORAM in a later process. It fails on controllers that have
// latched an integrity violation, and — with an error
// wrapping ErrStorage — once an access has returned ErrStorage: after a
// failed write the trusted state no longer matches the bucket files, and
// every later Read and Write is refused the same way.
//
// The snapshot IS trusted state: it is the durable stand-in for what the
// paper keeps inside the processor, and it contains the stash, treetop and
// PLB plaintexts and the key-deriving seed. Store it where the adversary of
// §2 cannot read or roll it back (reading it reveals everything; rolling back
// snapshot AND bucket files together rewinds the entire freshness root,
// which no ORAM can detect). PMMAC protects against everything short of
// that: tampered buckets, deleted buckets, and any mismatch between the
// snapshot and the bucket files.
func (o *ORAM) Snapshot(w io.Writer) error {
	snap, err := o.sys.Snapshot()
	if err != nil {
		return fmt.Errorf("freecursive: %w", err)
	}
	if err := json.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("freecursive: encoding snapshot: %w", err)
	}
	return nil
}

// Resume rebuilds an ORAM from cfg and restores the trusted state written
// by Snapshot. cfg must describe the same ORAM the snapshot was taken from
// (same capacity, seed, …); DataDir, MemAddr and MemNamespace may
// differ — they describe where untrusted memory lives, not what the state
// looks like. If the bucket files diverged from the snapshot (tampering, a
// crash after the snapshot), PMMAC detects it on access.
func Resume(cfg Config, r io.Reader) (*ORAM, error) {
	var snap core.Snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("freecursive: decoding snapshot: %w", err)
	}
	o, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := o.sys.Restore(&snap); err != nil {
		o.Close()
		return nil, fmt.Errorf("freecursive: %w", err)
	}
	return o, nil
}

// ErrIntegrity is returned (wrapped) once PMMAC detects tampering.
var ErrIntegrity = core.ErrIntegrity

// ErrStorage is matched (errors.Is) by errors caused by real untrusted-
// memory I/O faults — a failed page file, an unreachable or faulting
// bucketd, a connection lost with write-backs in flight. It is disjoint
// from ErrIntegrity: storage faults are fail-stop infrastructure problems,
// tampering is an attack detected by PMMAC. Serving layers quarantine on
// either, but the distinction matters for operators (restart vs forensics).
var ErrStorage = mem.ErrIO

// System exposes the underlying construction for experiments and tests that
// need the adversary's view (untrusted store, counters, backends).
func (o *ORAM) System() *core.System { return o.sys }
