package core

import (
	"fmt"

	"freecursive/internal/backend"
	"freecursive/internal/backend/bhoram"
	"freecursive/internal/plb"
	"freecursive/internal/stash"
	"freecursive/internal/stats"
	"freecursive/internal/tree"
)

// Snapshot is the complete serializable trusted state of a System: the
// pieces the paper keeps inside the processor's trust boundary (on-chip
// PosMap / PMMAC counter root, stash, treetop cache, PLB, RNG, the
// encryption seed register) plus the statistics counters. Everything else —
// the sealed bucket trees — lives in untrusted memory and is persisted
// separately by a durable mem.Backend.
//
// A snapshot is only meaningful together with the bucket files it was
// taken against. Restoring a stale snapshot over newer buckets (or fresh
// state over old buckets) desynchronizes the PMMAC counters from the MACs
// on disk; integrity-enabled schemes then detect the mismatch on access,
// which is exactly the §6.1 freshness guarantee doing its job.
type Snapshot struct {
	// Version guards the encoding.
	Version int `json:"version"`
	// Params echoes the build parameters (location-independent fields) so
	// a restore into a differently-shaped system fails loudly.
	Params Params `json:"params"`
	// RNG is the marshaled PCG state driving leaf remapping.
	RNG []byte `json:"rng"`
	// OnChip is the root of the recursion: leaf labels or PMMAC counters.
	OnChip OnChipState `json:"on_chip"`
	// Backends holds per-tree controller state, index-aligned with
	// System.Backends.
	Backends []BackendState `json:"backends"`
	// PLB holds the PosMap Lookaside Buffer residents (PLB schemes only).
	PLB []PLBEntryState `json:"plb,omitempty"`
	// Counters is the statistics snapshot.
	Counters stats.Counters `json:"counters"`
}

// OnChipState serializes posmap.OnChip.
type OnChipState struct {
	Entries  []uint64 `json:"entries"`
	Assigned []bool   `json:"assigned,omitempty"` // leaf mode only
}

// BackendState serializes one backend's trusted residue: the stash for
// Path ORAM, the cache/level metadata for the bucket-hash backend, plus
// the seed register either way.
type BackendState struct {
	// GlobalSeed is the bucket cipher's monotonic seed register (§6.4).
	GlobalSeed uint64 `json:"global_seed"`
	// Stash holds the blocks caught between path read and eviction
	// (Path ORAM backends).
	Stash []StashBlockState `json:"stash,omitempty"`
	// TreetopLevels is how many levels of the tree the treetop cache held
	// and Treetop its non-empty buckets (Path ORAM backends). The resumed
	// backend takes this depth over its configured one, so a snapshot from
	// before the cache existed (no such keys) resumes with none.
	TreetopLevels int                  `json:"treetop_levels,omitempty"`
	Treetop       []TreetopBucketState `json:"treetop,omitempty"`
	// BucketHash holds the bucket-hash backend's trusted state (cache
	// records, level generations, schedule counters). Exactly one of Stash
	// and BucketHash is populated, matching Params.Backend.
	BucketHash *bhoram.State `json:"bucket_hash,omitempty"`
}

// StashBlockState serializes one stash.Block.
type StashBlockState struct {
	Addr uint64 `json:"addr"`
	Leaf uint64 `json:"leaf"`
	Data []byte `json:"data"`
}

// TreetopBucketState serializes one backend.TreetopBucket.
type TreetopBucketState struct {
	Index  uint64            `json:"index"`
	Blocks []StashBlockState `json:"blocks"`
}

// PLBEntryState serializes one plb.Entry.
type PLBEntryState struct {
	Tag     uint64 `json:"tag"`
	Leaf    uint64 `json:"leaf"`
	Counter uint64 `json:"counter"`
	Block   []byte `json:"block"`
}

const snapshotVersion = 1

// comparableParams strips the fields that describe where untrusted memory
// lives rather than what the trusted state looks like, so a snapshot can be
// restored into the same logical ORAM at a different path — and the treetop
// budget, because the snapshot says how deep its treetop is.
func comparableParams(p Params) Params {
	p.TreetopBytes = 0
	p.DataDir = ""
	p.MemAddr = ""
	p.MemNamespace = ""
	return p
}

func blockStates(blocks []stash.Block) []StashBlockState {
	var out []StashBlockState
	for _, b := range blocks {
		out = append(out, StashBlockState{Addr: b.Addr, Leaf: b.Leaf, Data: b.Data})
	}
	return out
}

func (b StashBlockState) block() stash.Block {
	return stash.Block{Addr: b.Addr, Leaf: b.Leaf, Data: b.Data}
}

// Snapshot captures the system's trusted state. It requires functional
// backends (the accounting backend has no real tree to persist against)
// and refuses to snapshot a controller that has latched an integrity
// violation — a poisoned controller must not be resurrected — or a storage
// fault (the error then wraps mem.ErrIO): after a failed write-back the
// trusted state matches no memory image. Accesses started and not finished
// are completed first (their results wait for Finish): a snapshot never
// describes a half-done access.
func (s *System) Snapshot() (*Snapshot, error) {
	s.drain()
	snap := &Snapshot{
		Version:  snapshotVersion,
		Params:   comparableParams(s.Params),
		Counters: *s.Counters,
	}

	rngState, err := s.PCG.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("core: marshaling RNG: %w", err)
	}
	snap.RNG = rngState

	for i, be := range s.Backends {
		if f, ok := be.(interface{ Fault() error }); ok {
			if err := f.Fault(); err != nil {
				return nil, fmt.Errorf("core: refusing to snapshot backend %d: %w", i, err)
			}
		}
		bs := BackendState{}
		switch p := be.(type) {
		case *backend.PathORAM:
			if c := p.Cipher(); c != nil {
				bs.GlobalSeed = c.GlobalSeed()
			}
			bs.Stash = blockStates(p.Stash().Blocks())
			var top []backend.TreetopBucket
			bs.TreetopLevels, top = p.Treetop()
			for _, bk := range top {
				bs.Treetop = append(bs.Treetop, TreetopBucketState{Index: bk.Index, Blocks: blockStates(bk.Blocks)})
			}
		case *bhoram.BucketHash:
			// Draining in-flight rebuilds performs untrusted I/O; capture the
			// seed register AFTER so resealed buckets stay decryptable.
			st, err := p.TrustedState()
			if err != nil {
				return nil, fmt.Errorf("core: backend %d: %w", i, err)
			}
			bs.BucketHash = st
			if c := p.Cipher(); c != nil {
				bs.GlobalSeed = c.GlobalSeed()
			}
		default:
			return nil, fmt.Errorf("core: backend %d is %T; snapshots require the functional backend", i, be)
		}
		snap.Backends = append(snap.Backends, bs)
	}

	fe, ok := s.Frontend.(*PLBFrontend)
	if !ok {
		return nil, fmt.Errorf("core: cannot snapshot frontend %T", s.Frontend)
	}
	if err := fe.Violation(); err != nil {
		return nil, fmt.Errorf("core: refusing to snapshot a violated controller: %w", err)
	}
	snap.OnChip.Entries, snap.OnChip.Assigned = fe.OnChip().Snapshot()
	if fe.PLB() != nil {
		for _, e := range fe.PLB().Entries() {
			snap.PLB = append(snap.PLB, PLBEntryState{
				Tag: e.Tag, Leaf: e.Leaf, Counter: e.Counter, Block: e.Block,
			})
		}
	}
	return snap, nil
}

// checkStash refuses a stash no run of accesses could produce: a block
// mapped outside the tree (eviction places a block by its leaf's bits alone;
// every other way into the stash checks the label first), a block longer
// than the tree's blocks, or an address listed twice (Put would silently
// keep the last copy).
func checkStash(g tree.Geometry, blocks []StashBlockState) error {
	seen := make(map[uint64]bool, len(blocks))
	for _, b := range blocks {
		switch {
		case !g.ValidLeaf(b.Leaf):
			return fmt.Errorf("holds a stash block whose leaf is outside the tree (L=%d)", g.L)
		case len(b.Data) > g.BlockBytes:
			return fmt.Errorf("holds a stash block of %d bytes, blocks are %d", len(b.Data), g.BlockBytes)
		case seen[b.Addr]:
			return fmt.Errorf("lists one stash address twice")
		}
		seen[b.Addr] = true
	}
	return nil
}

// Restore injects a snapshot into a freshly built System with the same
// parameters. The bucket stores must hold the trees the snapshot was taken
// against; PMMAC arbitrates any divergence on later accesses.
func (s *System) Restore(snap *Snapshot) error {
	if snap.Version != snapshotVersion {
		return fmt.Errorf("core: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	if got, want := comparableParams(s.Params), comparableParams(snap.Params); got != want {
		return fmt.Errorf("core: snapshot parameters %+v do not match system %+v", want, got)
	}
	if len(snap.Backends) != len(s.Backends) {
		return fmt.Errorf("core: snapshot has %d backends, system has %d", len(snap.Backends), len(s.Backends))
	}
	// Every stash is checked before anything changes, so a refused snapshot
	// leaves the system as it was built.
	for i, bs := range snap.Backends {
		if p, ok := s.Backends[i].(*backend.PathORAM); ok {
			if err := checkStash(p.Geometry(), bs.Stash); err != nil {
				return fmt.Errorf("core: snapshot backend %d %w", i, err)
			}
		}
	}
	if err := s.PCG.UnmarshalBinary(snap.RNG); err != nil {
		return fmt.Errorf("core: restoring RNG: %w", err)
	}

	for i, bs := range snap.Backends {
		switch p := s.Backends[i].(type) {
		case *backend.PathORAM:
			if bs.BucketHash != nil {
				return fmt.Errorf("core: snapshot backend %d carries bucket-hash state for a Path ORAM backend", i)
			}
			if c := p.Cipher(); c != nil {
				c.SetGlobalSeed(bs.GlobalSeed)
			}
			for _, b := range bs.Stash {
				p.Stash().Put(b.block())
			}
			top := make([]backend.TreetopBucket, len(bs.Treetop))
			for j, bk := range bs.Treetop {
				top[j].Index = bk.Index
				for _, b := range bk.Blocks {
					top[j].Blocks = append(top[j].Blocks, b.block())
				}
			}
			if err := p.RestoreTreetop(bs.TreetopLevels, top); err != nil {
				return fmt.Errorf("core: snapshot backend %d: %w", i, err)
			}
		case *bhoram.BucketHash:
			if bs.BucketHash == nil {
				return fmt.Errorf("core: snapshot backend %d lacks bucket-hash state", i)
			}
			if c := p.Cipher(); c != nil {
				c.SetGlobalSeed(bs.GlobalSeed)
			}
			if err := p.RestoreState(bs.BucketHash); err != nil {
				return fmt.Errorf("core: backend %d: %w", i, err)
			}
		default:
			return fmt.Errorf("core: backend %d is %T; snapshots require the functional backend", i, s.Backends[i])
		}
	}

	fe, ok := s.Frontend.(*PLBFrontend)
	if !ok {
		return fmt.Errorf("core: cannot restore into frontend %T", s.Frontend)
	}
	if err := fe.OnChip().Restore(snap.OnChip.Entries, snap.OnChip.Assigned); err != nil {
		return err
	}
	for _, e := range snap.PLB {
		if fe.PLB() == nil {
			return fmt.Errorf("core: snapshot carries PLB entries but the system has no PLB")
		}
		if _, _, evicted := fe.PLB().Insert(plb.Entry{
			Tag: e.Tag, Leaf: e.Leaf, Counter: e.Counter, Block: e.Block,
		}); evicted {
			// Same capacity + same tags as the source PLB: an eviction
			// here means the snapshot and system disagree after all.
			return fmt.Errorf("core: PLB overflow restoring entry %#x", e.Tag)
		}
	}

	// Counters last: the restore steps above must not leak into the
	// resumed statistics.
	*s.Counters = snap.Counters
	return nil
}
