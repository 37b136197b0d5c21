// Package store layers a thread-safe, sharded key-value store on top of
// freecursive.ORAM.
//
// A Store owns S independent ORAM shards. Store addresses are partitioned
// across shards by a bijective multiplicative hash, so consecutive addresses
// land on different shards and every shard sees a balanced slice of any
// workload. Each shard is owned by a dedicated goroutine fed by a bounded
// request queue — the goroutine is the serialization, exactly the
// single-controller contract a freecursive.ORAM requires (see the package
// comment on freecursive.ORAM) — and duplicate-address reads arriving close
// together coalesce into one physical ORAM access. Callers either block on
// one block (Get/Put) or submit a batch of mixed reads and writes
// (SubmitBatch) and wait on one Future per operation; a batch never fails
// as a whole.
//
// This is the serving arrangement Freecursive ORAM (§2, §4) makes cheap: the
// controller's trusted state per instance — PLB, stash, on-chip PosMap — is
// tiny, so running many instances side by side costs little beyond the
// untrusted trees themselves.
//
// Shards have a lifecycle (ShardState): a shard that latches a PMMAC
// integrity violation is quarantined — it fail-stops like the paper's
// processor exception, but only for its slice of the address space; every
// other shard keeps serving, and ShardInfos exposes the state for
// monitoring. Operators can also fence a shard by hand with Quarantine.
//
// With Config.DataDir set, the store is durable: each shard keeps its
// sealed bucket trees and trusted-state snapshot under its own
// subdirectory, Snapshot persists the controllers' trusted state, and New
// transparently resumes shards whose snapshot exists. The tiny trusted
// state is again what makes this cheap — a snapshot is kilobytes while the
// trees are gigabytes, and the trees never have to move.
package store

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sync"

	"freecursive"
)

// Config parameterizes a Store.
type Config struct {
	// Shards is the number of independent ORAM shards. It is rounded up to
	// a power of two; default 8.
	Shards int
	// Blocks is the total capacity across all shards. It is rounded up so
	// each shard holds a power-of-two number of blocks; default 1<<20.
	Blocks uint64
	// ORAM configures each shard. Its Blocks field is ignored (derived from
	// Blocks/Shards above); its memory fields (DataDir, MemAddr,
	// MemNamespace) must be empty, because each shard needs memory of its
	// own and the store-level fields below place it; and its Seed is
	// treated as the store seed: each shard's ORAM seed is derived from
	// (store seed, shard index) with a SplitMix64-style mix, so distinct
	// (seed, shard) pairs draw independent randomness.
	ORAM freecursive.Config
	// DataDir, if non-empty, makes the store durable: shard i keeps its
	// bucket page files and trusted-state snapshot under
	// DataDir/shard-<i>/. New resumes any shard whose snapshot file
	// exists; Snapshot writes the snapshots.
	//
	// Trust note: the state.json snapshots are TRUSTED state (see
	// freecursive.ORAM.Snapshot) colocated with the untrusted bucket
	// files for deployment convenience. A production deployment must
	// place DataDir on storage the adversary cannot read or roll back
	// wholesale; the bucket files alone may be exposed.
	DataDir string
	// MemAddr, if non-empty, places every shard's sealed bucket trees on a
	// remote bucketd server at this TCP address (see freecursive.Config.
	// MemAddr). Shard i uses bucketd namespace "<MemNamespace>/shard-<i>".
	// A remote I/O fault — server fault, lost connection — quarantines the
	// affected shard (fail-stop for its slice of the address space) while
	// the rest keep serving. Incompatible with DataDir.
	MemAddr string
	// MemNamespace isolates this store's buckets on a shared bucketd
	// (default "store"). Two live stores must not share a namespace. It
	// needs MemAddr: New refuses it alone.
	MemNamespace string
}

// stateFile is the per-shard trusted-state snapshot written by Snapshot.
const stateFile = "state.json"

// Store is a concurrency-safe oblivious block store. All methods may be
// called from any number of goroutines.
type Store struct {
	shards     []*shard
	blocks     uint64 // total capacity, shards * perShard
	perShard   uint64 // power of two
	shardShift uint   // log2(perShard)
	blockBytes int
	dataDir    string // "" for a purely in-memory store
}

// fibMix is 2^64/phi rounded to odd; multiplication by it is a bijection
// mod any power of two, so truncating the product to log2(blocks) bits
// permutes the address space rather than merely hashing it. The top bits of
// the permuted address pick the shard (Fibonacci hashing), the low bits the
// slot within it — distinct store addresses can never collide on a slot.
const fibMix = 0x9E3779B97F4A7C15

// splitmix64 is the SplitMix64 finalizer: a bijection on uint64 with full
// avalanche, used to derive per-shard seeds.
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// shardSeed derives shard i's ORAM seed from the store seed. Mixing the
// base through SplitMix64 before adding the index and mixing again means a
// collision between (s, i) and (s', i') requires splitmix64(s')-splitmix64(s)
// to land exactly on i-i' — a pseudo-random 64-bit difference hitting a
// value smaller than the shard count — rather than the trivial collisions
// of a linear offset. Seed 0 is avoided because it means "use the default"
// downstream.
func shardSeed(base uint64, i uint64) uint64 {
	s := splitmix64(splitmix64(base) + i)
	if s == 0 {
		s = 1
	}
	return s
}

// New builds a Store.
func New(cfg Config) (*Store, error) {
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("store: negative shard count %d", cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 8
	}
	if cfg.Blocks == 0 {
		cfg.Blocks = 1 << 20
	}
	for _, f := range [][2]string{
		{"DataDir", cfg.ORAM.DataDir},
		{"MemAddr", cfg.ORAM.MemAddr},
		{"MemNamespace", cfg.ORAM.MemNamespace},
	} {
		if f[1] != "" {
			return nil, fmt.Errorf("store: ORAM.%[1]s would be shared by every shard; set Config.%[1]s instead", f[0])
		}
	}
	nShards := nextPow2(uint64(cfg.Shards))
	perShard := nextPow2((cfg.Blocks + nShards - 1) / nShards)
	if perShard < 2 {
		perShard = 2
	}
	s := &Store{
		shards:     make([]*shard, nShards),
		blocks:     nShards * perShard,
		perShard:   perShard,
		shardShift: uint(bits.TrailingZeros64(perShard)),
		dataDir:    cfg.DataDir,
	}
	base := cfg.ORAM.Seed
	if base == 0 {
		base = 1
	}
	ns := cfg.MemNamespace
	if ns == "" {
		ns = "store"
	}
	for i := range s.shards {
		ocfg := cfg.ORAM
		ocfg.Blocks = perShard
		ocfg.Seed = shardSeed(base, uint64(i))
		if cfg.MemAddr != "" || cfg.MemNamespace != "" {
			// Handed down even without MemAddr, for core to refuse.
			ocfg.MemAddr = cfg.MemAddr
			ocfg.MemNamespace = fmt.Sprintf("%s/shard-%04d", ns, i)
		}
		o, err := openShard(i, ocfg, cfg.DataDir)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("store: shard %d: %w", i, err)
		}
		s.shards[i] = newShard(o)
	}
	s.blockBytes = s.shards[0].oram.BlockBytes()
	return s, nil
}

// openShard builds shard i's ORAM: fresh for in-memory stores and for
// durable shards without a snapshot, resumed when a snapshot exists. A
// durable shard resumed against bucket files that diverged from its
// snapshot (a crash, tampering) comes up — PMMAC then rejects the affected
// blocks on access instead of serving them.
func openShard(i int, ocfg freecursive.Config, dataDir string) (*freecursive.ORAM, error) {
	if dataDir == "" {
		return freecursive.New(ocfg)
	}
	ocfg.DataDir = shardDir(dataDir, i)
	f, err := os.Open(filepath.Join(ocfg.DataDir, stateFile))
	if os.IsNotExist(err) {
		return freecursive.New(ocfg)
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return freecursive.Resume(ocfg, f)
}

func shardDir(dataDir string, i int) string {
	return filepath.Join(dataDir, fmt.Sprintf("shard-%04d", i))
}

func nextPow2(v uint64) uint64 {
	if v <= 1 {
		return 1
	}
	return 1 << bits.Len64(v-1)
}

// Blocks returns the total capacity in blocks (after rounding).
func (s *Store) Blocks() uint64 { return s.blocks }

// BlockBytes returns the block size.
func (s *Store) BlockBytes() int { return s.blockBytes }

// Shards returns the shard count (after rounding).
func (s *Store) Shards() int { return len(s.shards) }

// locate maps a store address to (shard index, address within that shard).
// The map is a bijection on [0, s.blocks).
func (s *Store) locate(addr uint64) (uint64, uint64) {
	m := (addr * fibMix) & (s.blocks - 1)
	return m >> s.shardShift, m & (s.perShard - 1)
}

// ShardOf returns the shard index serving addr. It is the exported view of
// the address partition, for monitoring and tests; addr must be in range.
func (s *Store) ShardOf(addr uint64) int {
	si, _ := s.locate(addr)
	return int(si)
}

// ErrOutOfRange is returned (wrapped) for addresses at or beyond Blocks().
// Callers can use it to tell caller mistakes from shard failures such as
// freecursive.ErrIntegrity or a quarantined shard (ErrQuarantined).
var ErrOutOfRange = errors.New("address out of range")

func (s *Store) check(addr uint64) error {
	//oramlint:allow secretflow source: addr parameter; sink: bounds-check branch — the check compares against the public Blocks and refuses the request before any memory traffic, so it adds nothing to what the untrusted memory sees
	if addr >= s.blocks {
		return fmt.Errorf("store: %w: not in [0, %d)", ErrOutOfRange, s.blocks)
	}
	return nil
}

// submit is the one way a data operation enters the store: it validates
// addr, routes it to its shard and enqueues a read (or a write of data) on
// that shard's pipeline without waiting. A validation failure or a
// quarantined shard resolves only the returned future with an error.
func (s *Store) submit(write bool, addr uint64, data []byte) *Future {
	if err := s.check(addr); err != nil {
		return resolvedFuture(nil, err)
	}
	si, inner := s.locate(addr)
	//oramlint:allow secretflow source: addr parameter; sink: shard-slice index — a known leak of log2 S address bits per op (which of the S shards serves it), tracked by ROADMAP's shard-channel item
	return s.shards[si].submit(request{write: write, inner: inner, data: data})
}

// Get returns the contents of the block at addr. Never-written blocks read
// as zeros.
func (s *Store) Get(addr uint64) ([]byte, error) {
	return s.submit(false, addr, nil).Wait()
}

// Put replaces the block at addr (shorter data is zero-padded). Its data
// result is always nil: the store does not report previous contents, and
// the slice stays in the signature only for callers compiled against it
// (the benchmark in bench/). On a shard whose memory is a round trip away,
// Put returns once the write is ordered — every later operation sees it —
// without waiting for its path read; if the write is lost after that, the
// shard quarantines and no later operation returns what it replaced.
func (s *Store) Put(addr uint64, data []byte) ([]byte, error) {
	return s.submit(true, addr, data).Wait()
}

// Quarantine fences shard i by hand: its data requests fail fast with an
// error wrapping ErrQuarantined (503-class) while other shards keep
// serving. cause, if non-nil, is recorded and reported by ShardInfos.
// Integrity violations quarantine the affected shard automatically; this
// is the operator's lever for everything PMMAC cannot see (a suspect disk,
// a migration). Quarantine is terminal for the shard within this process —
// requests already executing may still complete.
func (s *Store) Quarantine(i int, cause error) error {
	if i < 0 || i >= len(s.shards) {
		return fmt.Errorf("store: shard %d not in [0, %d)", i, len(s.shards))
	}
	s.shards[i].health.quarantine(cause)
	return nil
}

// ShardState returns shard i's lifecycle state.
func (s *Store) ShardState(i int) ShardState {
	return s.shards[i].health.State()
}

// ShardInfos returns a point-in-time lifecycle and pipeline snapshot of
// every shard, indexed by shard.
func (s *Store) ShardInfos() []ShardInfo {
	out := make([]ShardInfo, len(s.shards))
	for i, sh := range s.shards {
		info := ShardInfo{
			Index:          i,
			State:          sh.health.State().String(),
			QueueLen:       len(sh.reqs),
			QueueCap:       cap(sh.reqs),
			Enqueued:       sh.enqueued.Load(),
			CoalescedReads: sh.coalesced.Load(),

			OverlappedAccesses: sh.overlapped.Load(),
			InFlight:           int(sh.occupancy.Load()),
		}
		if cause := sh.health.Cause(); cause != nil {
			info.Cause = cause.Error()
		}
		out[i] = info
	}
	return out
}

// Stats returns counters aggregated across all shards, equivalent to
// Aggregate(s.ShardStats()). Callers that also want the per-shard view
// should take one ShardStats snapshot and run Aggregate over it, so both
// views describe the same instant.
func (s *Store) Stats() freecursive.Stats {
	return Aggregate(s.ShardStats())
}

// Aggregate folds per-shard snapshots into one: counter fields and
// TreetopBytes are sums, StashMax and TreetopLevels are the max, PLBHitRate
// is the access-weighted mean.
func Aggregate(shards []freecursive.Stats) freecursive.Stats {
	var agg freecursive.Stats
	var weighted float64
	for _, st := range shards {
		agg.Accesses += st.Accesses
		agg.BackendAccesses += st.BackendAccesses
		agg.BytesMoved += st.BytesMoved
		agg.PosMapBytes += st.PosMapBytes
		agg.GroupRemaps += st.GroupRemaps
		agg.MACChecks += st.MACChecks
		agg.Violations += st.Violations
		agg.StashOverflow += st.StashOverflow
		agg.Rebuilds += st.Rebuilds
		agg.RebuildSteps += st.RebuildSteps
		if st.StashMax > agg.StashMax {
			agg.StashMax = st.StashMax
		}
		agg.TreetopBytes += st.TreetopBytes
		agg.TreetopLevels = max(agg.TreetopLevels, st.TreetopLevels)
		weighted += st.PLBHitRate * float64(st.Accesses)
	}
	if agg.Accesses > 0 {
		agg.PLBHitRate = weighted / float64(agg.Accesses)
	}
	return agg
}

// ShardStats returns a per-shard snapshot, indexed by shard. Each shard's
// counters are read on its owner goroutine (so the snapshot serializes
// with traffic), with all shards sampled concurrently.
func (s *Store) ShardStats() []freecursive.Stats {
	out := make([]freecursive.Stats, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			out[i] = sh.stats()
		}(i, sh)
	}
	wg.Wait()
	return out
}

// Snapshot persists every healthy shard's trusted controller state under
// DataDir. Each shard's snapshot runs on its owner goroutine, so in-flight
// traffic serializes against it but other shards are unaffected. Snapshots
// are written to a temporary file and renamed, so a crash mid-snapshot
// leaves the previous one intact. Quarantined shards are skipped — a
// poisoned controller must not be resurrected — and reported with an error
// wrapping ErrQuarantined after every healthy shard has been persisted.
// It fails if the store was built without DataDir.
func (s *Store) Snapshot() error {
	if s.dataDir == "" {
		return fmt.Errorf("store: Snapshot requires a DataDir")
	}
	var skipped []int
	for i, sh := range s.shards {
		if sh.health.State() == StateQuarantined {
			skipped = append(skipped, i)
			continue
		}
		if err := s.snapshotShard(i, sh); err != nil {
			return fmt.Errorf("store: shard %d: %w", i, err)
		}
	}
	if len(skipped) > 0 {
		return fmt.Errorf("store: %w: skipped snapshot of quarantined shard(s) %v", ErrQuarantined, skipped)
	}
	return nil
}

func (s *Store) snapshotShard(i int, sh *shard) error {
	errCh := make(chan error, 1)
	if !sh.control(func(o *freecursive.ORAM) { errCh <- writeSnapshot(shardDir(s.dataDir, i), o) }) {
		return errClosed()
	}
	return <-errCh
}

// writeSnapshot writes one shard's trusted state with the tmp+rename dance.
// It runs on the shard's owner goroutine.
func writeSnapshot(dir string, o *freecursive.ORAM) error {
	tmp, err := os.CreateTemp(dir, stateFile+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := o.Snapshot(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, stateFile))
}

// Close drains every shard's queue (requests already accepted are served),
// stops the owner goroutines, and releases the untrusted storage. It does
// not snapshot — call Snapshot first for a clean durable shutdown. Submits
// racing with Close fail with an error wrapping ErrClosed.
func (s *Store) Close() error {
	// Seal every queue first so all owners drain concurrently; shutdown
	// latency is then the slowest shard's drain, not the sum.
	for _, sh := range s.shards {
		if sh == nil {
			continue // New failed partway; close what was opened
		}
		sh.shutdown()
	}
	var first error
	for _, sh := range s.shards {
		if sh == nil {
			continue
		}
		<-sh.done
		if err := sh.oram.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
