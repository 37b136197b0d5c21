// Package bhoram implements a second position-based ORAM construction
// behind the backend.Backend interface: a Pyramid-style bucket-hash
// hierarchy with deamortized background rebuilds (The Pyramid Scheme:
// Oblivious RAM for Trusted Processors; see PAPERS.md).
//
// # Construction
//
// Untrusted memory holds K levels of hash-bucket tables. Level i stores up
// to C·2^i records (C = the trusted cache capacity) in buckets of Z slots,
// sized for at most 50% load. An access probes exactly ONE bucket per
// active level — the bucket selected by PRF(level‖generation, leaf) — so
// the probe sequence is a deterministic public function of the leaf label
// (which position-based ORAM reveals by design) and of the rebuild
// schedule, never of the logical address. Records carry a monotonic
// version; among all copies of an address found in the cache and the
// probed buckets, the highest version wins, and a tombstone winner means
// "not present" (readrmv leaves tombstones so stale deeper copies can
// never resurrect).
//
// Every C probe accesses — by ACCESS COUNT, never by cache occupancy,
// which is address-dependent and must not steer observable I/O — the cache
// is frozen and a rebuild is scheduled into the smallest inactive level
// (binary-counter schedule; when all levels are active, a major rebuild
// into the deepest level consumes everything and drops tombstones and dead
// versions). Rebuilds run as chunked steps: read the source levels'
// buckets, merge with the frozen cache deduplicating by version, rehash
// every surviving record under the target level's next generation into the
// level's inactive parity region, write every target bucket exactly once,
// then flip trusted metadata atomically. A bounded number of bucket
// operations runs inline after each access (deamortization), and the owner
// goroutine above can drain more via the backend.Maintainer interface when
// the request pipeline is idle — rebuild work therefore never blocks a
// request for more than its fixed inline quantum.
//
// Rebuild I/O cost is a function of bucket counts alone, so the complete
// I/O trace (probes + rebuild chunks) is determined by the access count
// and the leaf sequence — the differential trace tests pin this down by
// permuting logical addresses and asserting identical traces.
//
// # Buffer ownership
//
// The probe path follows the PR-5 zero-alloc contracts: scratch lives on
// the struct, record payloads recirculate through a free list, and the
// mem.Backend ownership rules are honored (sealed buckets are read-only
// scratch, written slices are not retained). Rebuild steps are amortized
// maintenance — one rebuild per C accesses — and reuse grown scratch
// across rebuilds, but are not held to the per-access zero-alloc gate; the
// alloc test pins the amortized budget instead.
//
// # Faults
//
// A probe-read fault aborts the access before any trusted state changes; a
// rebuild-step fault surfaces from Access or Maintain with the step cursor
// left in place. Either way the error wraps mem.ErrIO (i.e.
// freecursive.ErrStorage) and is fail-stop: the backend.FaultLatch keeps
// the first one, every later Access or Maintain is refused with it before
// touching memory, and core will not snapshot — a pipelined memory reports
// a lost write from whatever operation comes next, so no fault can be
// taken for harmless.
package bhoram

import (
	"fmt"

	"freecursive/internal/backend"
	"freecursive/internal/crypt"
	"freecursive/internal/mem"
	"freecursive/internal/stats"
	"freecursive/internal/tree"
)

// DefaultCacheCapacity is the trusted-cache capacity (and therefore the
// rebuild period) when Config.CacheCapacity is zero.
const DefaultCacheCapacity = 128

// ResolveCacheCapacity maps a configured capacity to the effective one.
// Level sizing is derived from it, so every layer that needs the flat
// bucket count (core's mem factory, FileStore sizing) must resolve the
// capacity the same way.
func ResolveCacheCapacity(c int) int {
	if c <= 0 {
		return DefaultCacheCapacity
	}
	return c
}

// record is one logical block as the trusted side tracks it: address, the
// leaf it is hashed under, a monotonic version for newest-wins resolution,
// and a tombstone marker for read-removed blocks.
type record struct {
	addr    uint64
	leaf    uint64
	version uint64
	tomb    bool
	data    []byte
}

// level is the trusted metadata for one untrusted hash table level.
type level struct {
	active  bool
	gen     uint64 // generation: bumped every rebuild, salts the hash
	parity  int    // which of the level's two flat regions is live
	buckets uint64 // buckets per parity region
	base    uint64 // first flat bucket index of this level's regions
}

// BucketHash is the bucket-hash hierarchical ORAM backend.
type BucketHash struct {
	backend.FaultLatch
	geom  tree.Geometry
	store mem.Backend
	ciph  *crypt.BucketCipher // nil: plaintext buckets
	hash  *crypt.PRF          // nil: non-cryptographic mixer (tests)
	ctr   *stats.Counters

	cacheCap int
	levels   []level // levels[i] is construction level i+1

	cache  map[uint64]*record // live trusted cache
	frozen map[uint64]*record // rebuild builder; doubles as the frozen cache
	reb    *rebuild           // in-progress rebuild, nil when idle

	accesses        uint64 // probe accesses served; drives the schedule
	nextVer         uint64 // next record version
	pendingTriggers int
	quantum         int // inline rebuild bucket-ops per access

	maxSeen   int    // cache occupancy high water (live + frozen)
	overflows uint64 // accesses that left occupancy above capacity

	// Record and payload free lists (PR-5 recycling idiom).
	freeRecs []*record
	freeData [][]byte

	// Probe-path scratch, reused across accesses.
	probeIdx  []uint64
	probeBufs [][]byte
	bodyBuf   []byte // decrypted bucket body scratch
	candBuf   []byte // best candidate payload copied out of bodyBuf
	resultBuf []byte // Result.Data backing store

	// Rebuild scratch, reused across rebuilds.
	chunkIdx    []uint64
	chunkBufs   [][]byte
	chunkSealed [][]byte
	encBuf      []byte      // plaintext bucket body for target writes
	assign      [][]*record // per-target-bucket record lists
	frozenPool  []map[uint64]*record
}

// Config parameterizes a bucket-hash backend.
type Config struct {
	Geometry tree.Geometry
	Store    mem.Backend         // nil: fresh in-process map store
	Cipher   *crypt.BucketCipher // nil: plaintext; SeedPerBucket is rejected
	// Hash keys the bucket-choice PRF. nil falls back to a deterministic
	// non-cryptographic mixer — fine for tests, not for deployments.
	Hash          *crypt.PRF
	CacheCapacity int             // 0: DefaultCacheCapacity
	Counters      *stats.Counters // nil: fresh counters
	// StepBudget overrides the inline rebuild bucket-ops per access
	// (0: max(8, 4·levels)).
	StepBudget int
}

// New builds a bucket-hash backend.
func New(cfg Config) (*BucketHash, error) {
	if cfg.Geometry.Z < 1 || cfg.Geometry.BlockBytes < 1 {
		return nil, fmt.Errorf("bhoram: invalid geometry %+v", cfg.Geometry)
	}
	if cfg.Cipher != nil && cfg.Cipher.Scheme() == crypt.SeedPerBucket {
		// Rebuilds write target buckets without reading them first, so the
		// per-bucket seed chain of [26] cannot be continued; only the
		// global-seed scheme (§6.4) provides fresh pads here.
		return nil, fmt.Errorf("bhoram: per-bucket seed scheme unsupported; use crypt.SeedGlobal")
	}
	st := cfg.Store
	if st == nil {
		st = mem.NewStore()
	}
	ctr := cfg.Counters
	if ctr == nil {
		ctr = &stats.Counters{}
	}
	cc := ResolveCacheCapacity(cfg.CacheCapacity)
	k := numLevels(cfg.Geometry, cc)
	b := &BucketHash{
		geom:     cfg.Geometry,
		store:    st,
		ciph:     cfg.Cipher,
		hash:     cfg.Hash,
		ctr:      ctr,
		cacheCap: cc,
		levels:   make([]level, k),
		cache:    make(map[uint64]*record),
		nextVer:  1,
		quantum:  cfg.StepBudget,
	}
	if b.quantum <= 0 {
		b.quantum = 4 * k
		if b.quantum < 8 {
			b.quantum = 8
		}
	}
	base := uint64(0)
	for i := range b.levels {
		n := levelBuckets(cfg.Geometry, cc, i+1)
		b.levels[i] = level{buckets: n, base: base}
		base += 2 * n
	}
	b.bodyBuf = make([]byte, 0, b.bodyBytes())
	b.candBuf = make([]byte, b.geom.BlockBytes)
	b.resultBuf = make([]byte, b.geom.BlockBytes)
	b.encBuf = make([]byte, b.bodyBytes())
	return b, nil
}

// --- sizing ---------------------------------------------------------------

// numLevels returns the level count K: the smallest K with C·2^K at least
// the geometry's logical capacity (leaves × Z blocks, matching what a Path
// ORAM tree of the same geometry holds at its design load).
func numLevels(g tree.Geometry, cacheCap int) int {
	need := g.Leaves() * uint64(g.Z)
	k := 1
	for (uint64(cacheCap) << uint(k)) < need {
		k++
	}
	return k
}

// levelBuckets returns the per-parity bucket count of construction level
// lvl (1-based): capacity C·2^lvl records at no more than 50% load.
func levelBuckets(g tree.Geometry, cacheCap int, lvl int) uint64 {
	capRecs := uint64(cacheCap) << uint(lvl)
	z := uint64(g.Z)
	n := (2*capRecs + z - 1) / z
	if n < 1 {
		n = 1
	}
	return n
}

// NumBuckets returns the total flat bucket index space the backend uses in
// its mem.Backend for geometry g and the given (unresolved) cache
// capacity: two parity regions per level. File-backed stores size their
// bucket files with it.
func NumBuckets(g tree.Geometry, cacheCap int) uint64 {
	cc := ResolveCacheCapacity(cacheCap)
	total := uint64(0)
	for i := 1; i <= numLevels(g, cc); i++ {
		total += 2 * levelBuckets(g, cc, i)
	}
	return total
}

// Levels returns the construction's level count K for the given geometry
// and (unresolved) cache capacity.
func Levels(g tree.Geometry, cacheCap int) int {
	return numLevels(g, ResolveCacheCapacity(cacheCap))
}

// --- bucket serialization -------------------------------------------------
//
// Plaintext bucket body layout, per slot:
//   [0]     flags (slotValid, slotTomb)
//   [1:9]   address (big endian)
//   [9:17]  leaf (big endian)
//   [17:25] version (big endian)
//   [25:25+B] payload
// The body is Z slots long; dummy slots are all zeros. Sealed buckets are
// the encrypted body prefixed with the plaintext 8-byte seed.

const (
	slotValid  = 0x01
	slotTomb   = 0x02
	slotHeader = 25
)

func (b *BucketHash) slotBytes() int { return slotHeader + b.geom.BlockBytes }
func (b *BucketHash) bodyBytes() int { return b.geom.Z * b.slotBytes() }

// SealedBucketBytes returns the largest sealed bucket the backend ever
// hands to untrusted memory for geometry g. File-backed mem stores size
// their slots with it.
func SealedBucketBytes(g tree.Geometry) int {
	return crypt.SeedBytes + g.Z*(slotHeader+g.BlockBytes)
}

// wireBucketBytes is the DRAM-bus cost of one bucket: the sealed size
// padded to 64-byte bursts, mirroring backend.WireBucketBytes' padding.
func wireBucketBytes(g tree.Geometry) uint64 {
	return (uint64(SealedBucketBytes(g)) + 63) &^ 63
}

// --- accessors ------------------------------------------------------------

// Geometry returns the geometry the backend was built for. The frontends
// use only its leaf-label range and block size; no tree is materialized.
func (b *BucketHash) Geometry() tree.Geometry { return b.geom }

// Counters returns the shared counter set.
func (b *BucketHash) Counters() *stats.Counters { return b.ctr }

// Store exposes untrusted memory for adversarial tests.
func (b *BucketHash) Store() mem.Backend { return b.store }

// Cipher exposes the bucket cipher (nil in plaintext mode) so a durable
// controller can persist and restore the global seed register.
func (b *BucketHash) Cipher() *crypt.BucketCipher { return b.ciph }

// CacheCapacity returns the resolved trusted-cache capacity C.
func (b *BucketHash) CacheCapacity() int { return b.cacheCap }

// TotalBuckets returns the flat bucket index space in use.
func (b *BucketHash) TotalBuckets() uint64 {
	last := b.levels[len(b.levels)-1]
	return last.base + 2*last.buckets
}

// Close releases the untrusted store's resources. Pending rebuild work is
// abandoned, exactly as a crash would; a durable controller snapshots
// (which drains) before closing.
func (b *BucketHash) Close() error { return b.store.Close() }

// --- record free lists ----------------------------------------------------

// newRecord returns a record with a BlockBytes payload buffer attached,
// reusing recycled ones when available.
//
//oram:hotpath
func (b *BucketHash) newRecord() *record {
	if n := len(b.freeRecs); n > 0 {
		r := b.freeRecs[n-1]
		b.freeRecs[n-1] = nil
		b.freeRecs = b.freeRecs[:n-1]
		return r
	}
	//oramlint:allow hotpathalloc free-list miss; steady state recycles records and the AllocsPerRun gate pins the amortized budget
	r := &record{}
	r.data = b.newBlockBuf()
	return r
}

// recycleRecord returns a record (and its payload buffer) to the free
// lists.
//
//oram:hotpath
func (b *BucketHash) recycleRecord(r *record) {
	if r == nil {
		return
	}
	if len(r.data) != b.geom.BlockBytes {
		r.data = nil // foreign-sized buffer (snapshot restore): drop it
	}
	r.addr, r.leaf, r.version, r.tomb = 0, 0, 0, false
	b.freeRecs = append(b.freeRecs, r)
}

// newBlockBuf returns a BlockBytes payload buffer with arbitrary contents.
//
//oram:hotpath
func (b *BucketHash) newBlockBuf() []byte {
	if n := len(b.freeData); n > 0 {
		buf := b.freeData[n-1]
		b.freeData[n-1] = nil
		b.freeData = b.freeData[:n-1]
		return buf
	}
	//oramlint:allow hotpathalloc free-list miss; steady state recycles buffers and the AllocsPerRun gate pins the amortized budget
	return make([]byte, b.geom.BlockBytes)
}

// fillBlockBuf copies src into dst, zero-padding the tail (shorter writes
// are zero-extended to the block size, as the Request contract promises).
//
//oram:hotpath
func fillBlockBuf(dst, src []byte) {
	n := copy(dst, src)
	clear(dst[n:])
}

// --- bucket choice --------------------------------------------------------

// bucketFor returns the in-level bucket a record with the given leaf hashes
// to at level index li under generation gen. The inputs are all public —
// the leaf is revealed by every position-based access, the level and
// generation follow the access-count schedule — so the choice leaks
// nothing about logical addresses.
//
//oram:hotpath
func (b *BucketHash) bucketFor(li int, gen, leaf uint64) uint64 {
	salt := (uint64(li+1) << 48) | gen
	var h uint64
	if b.hash != nil {
		h = b.hash.Eval(salt, leaf)
	} else {
		h = mix(salt ^ mix(leaf))
	}
	return h % b.levels[li].buckets
}

// flatIndex maps (level index, parity, in-level bucket) to the flat
// mem.Backend bucket index.
//
//oram:hotpath
func (b *BucketHash) flatIndex(li, parity int, bucket uint64) uint64 {
	lv := &b.levels[li]
	return lv.base + uint64(parity)*lv.buckets + bucket
}

// mix is splitmix64: the keyless stand-in for the bucket-choice PRF.
//
//oram:hotpath
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// --- access ---------------------------------------------------------------

// Access performs one backend operation; see backend.Op for semantics. The
// returned Result.Data is reusable scratch owned by the backend, valid
// only until the next Access.
//
//oram:hotpath
func (b *BucketHash) Access(req backend.Request) (backend.Result, error) {
	if err := b.Fault(); err != nil {
		return backend.Result{}, err
	}
	switch req.Op {
	case backend.OpAppend:
		return b.append(req)
	case backend.OpRead, backend.OpWrite, backend.OpReadRmv:
		res, err := b.access(req)
		return res, b.Latch(err)
	default:
		return backend.Result{}, fmt.Errorf("bhoram: unknown op %v", req.Op)
	}
}

// append inserts a previously read-removed block into the trusted cache
// without any untrusted I/O (Observation 2 holds here too: the block is
// not in any level the frontend can reach, so no access pattern is
// revealed). Appending over a live duplicate is a frontend discipline
// violation; appending over a tombstone is the legal re-insertion.
func (b *BucketHash) append(req backend.Request) (backend.Result, error) {
	if !b.geom.ValidLeaf(req.Leaf) {
		return backend.Result{}, fmt.Errorf("bhoram: append leaf out of range (L=%d)", b.geom.L)
	}
	if r := b.cache[req.Addr]; r != nil && !r.tomb {
		return backend.Result{}, fmt.Errorf("bhoram: append would duplicate a live block")
	}
	b.cachePut(req.Addr, req.Leaf, false, req.Data)
	b.ctr.Appends++
	b.noteOccupancy()
	b.syncStats()
	return backend.Result{Found: true}, nil
}

// access serves OpRead/OpWrite/OpReadRmv: probe one bucket per active
// level, resolve the newest copy, mutate the cache, then run the inline
// rebuild quantum.
//
//oram:hotpath
func (b *BucketHash) access(req backend.Request) (backend.Result, error) {
	if !b.geom.ValidLeaf(req.Leaf) {
		return backend.Result{}, fmt.Errorf("bhoram: leaf out of range (L=%d)", b.geom.L)
	}
	if req.Op != backend.OpReadRmv && !b.geom.ValidLeaf(req.NewLeaf) {
		return backend.Result{}, fmt.Errorf("bhoram: new leaf out of range (L=%d)", b.geom.L)
	}

	// Probe one bucket per active level, shallow to deep. The probe set is
	// fixed by (leaf, schedule state) before any trusted lookup happens —
	// cache hits and misses read exactly the same buckets.
	b.probeIdx = b.probeIdx[:0]
	for li := range b.levels {
		lv := &b.levels[li]
		if !lv.active {
			continue
		}
		b.probeIdx = append(b.probeIdx, b.flatIndex(li, lv.parity, b.bucketFor(li, lv.gen, req.Leaf)))
	}

	// Best candidate so far: the newest trusted copy (live cache first,
	// then the frozen/builder map). Probed untrusted copies compete below.
	var best *record
	if r := b.cache[req.Addr]; r != nil {
		best = r
	}
	if r := b.frozen[req.Addr]; r != nil && (best == nil || r.version > best.version) {
		best = r
	}
	bestVer := uint64(0)
	bestTomb := false
	found := false
	if best != nil {
		copy(b.candBuf, best.data)
		bestVer, bestTomb, found = best.version, best.tomb, true
	}

	// One bucket per active level batches into a single ReadPath. A
	// probe-read fault aborts before any trusted mutation.
	if len(b.probeIdx) > 0 {
		for len(b.probeBufs) < len(b.probeIdx) {
			b.probeBufs = append(b.probeBufs, nil)
		}
		bufs := b.probeBufs[:len(b.probeIdx)]
		if err := b.store.ReadPath(b.probeIdx, bufs); err != nil {
			return backend.Result{}, fmt.Errorf("bhoram: probe read: %w", err)
		}
		for i, idx := range b.probeIdx {
			//oramlint:allow secretflow source: cached record version fetched by request Addr; sink: version-resolution branch in scanBucket — the probe set was fixed before any scan; picking the newest version among fixed probes is trusted-memory work (hash-ORAM version resolution)
			ver, tomb, ok := b.scanBucket(idx, bufs[i], req.Addr, bestVer, found)
			if ok {
				bestVer, bestTomb, found = ver, tomb, true
			}
		}
	}

	res := backend.Result{Data: b.resultBuf}
	res.Found = found && !bestTomb
	if res.Found {
		copy(res.Data, b.candBuf)
	} else {
		clear(res.Data)
	}

	switch req.Op {
	case backend.OpReadRmv:
		// Leave a tombstone so no stale copy of this address can win a
		// future lookup; the caller (the PLB) now owns the block.
		b.cachePut(req.Addr, req.Leaf, true, nil)
	case backend.OpRead:
		if req.Update != nil {
			upd := req.Update(res.Data, res.Found)
			b.cachePut(req.Addr, req.NewLeaf, false, upd)
		} else if res.Found {
			b.cachePut(req.Addr, req.NewLeaf, false, res.Data)
		} else {
			// First-ever access: logically zero-initialized, like Path ORAM.
			b.cachePut(req.Addr, req.NewLeaf, false, nil)
		}
	case backend.OpWrite:
		b.cachePut(req.Addr, req.NewLeaf, false, req.Data)
	}

	b.ctr.BackendAccesses++
	bytes := uint64(len(b.probeIdx)) * wireBucketBytes(b.geom)
	if req.PosMap {
		b.ctr.PosMapBytes += bytes
	} else {
		b.ctr.DataBytes += bytes
	}
	b.noteOccupancy()

	// Advance the schedule and run the inline deamortization quantum. A
	// step fault after the cache mutation is fail-stop (mirroring Path
	// ORAM's post-mutation write-back errors).
	b.accesses++
	if b.accesses%uint64(b.cacheCap) == 0 {
		b.pendingTriggers++
	}
	if err := b.maintainStep(b.quantum); err != nil {
		return backend.Result{}, err
	}
	b.syncStats()
	return res, nil
}

// scanBucket decrypts and scans one probed bucket for addr, copying the
// payload of any strictly newer copy into candBuf. haveBest reports
// whether any candidate exists yet (version 0 is a valid stored version).
// Undecryptable or mis-sized buckets contribute nothing: structural
// garbage is the adversary's doing and is judged by the integrity layers
// above, while errors stay reserved for real I/O faults.
//
//oram:hotpath
func (b *BucketHash) scanBucket(idx uint64, sealed []byte, addr, bestVer uint64, haveBest bool) (ver uint64, tomb, ok bool) {
	if sealed == nil {
		return 0, false, false
	}
	body := sealed
	if b.ciph != nil {
		var err error
		body, _, err = b.ciph.OpenTo(b.bodyBuf[:0], idx, sealed)
		if err != nil {
			return 0, false, false
		}
		b.bodyBuf = body // keep grown capacity for the next bucket
	}
	if len(body) != b.bodyBytes() {
		return 0, false, false
	}
	sb := b.slotBytes()
	for i := 0; i < b.geom.Z; i++ {
		s := body[i*sb:]
		if s[0]&slotValid == 0 {
			continue
		}
		//oramlint:allow secretflow source: addr parameter; sink: slot-match branch — the scan touches every slot of every probed bucket regardless; the branch only selects which already-read slot wins, in trusted controller memory
		if beUint64(s[1:9]) != addr {
			continue
		}
		v := beUint64(s[17:25])
		if haveBest && v <= bestVer {
			continue
		}
		copy(b.candBuf, s[slotHeader:slotHeader+b.geom.BlockBytes])
		bestVer, haveBest = v, true
		ver, tomb, ok = v, s[0]&slotTomb != 0, true
	}
	return ver, tomb, ok
}

// cachePut inserts or overwrites the live-cache record for addr with a
// fresh (globally newest) version. data is copied; nil means a zero
// payload (tombstones and fresh zero blocks).
//
//oram:hotpath
func (b *BucketHash) cachePut(addr, leaf uint64, tomb bool, data []byte) {
	//oramlint:allow secretflow source: addr parameter; sink: live-cache map probe — the live cache is the bucket-hash scheme's stash analog, held in trusted controller memory; server-visible probes were fixed before this update
	r := b.cache[addr]
	//oramlint:allow secretflow source: addr parameter; sink: cache-miss branch — record reuse vs. allocation is trusted-memory bookkeeping; it does not change the probe sequence the server sees
	if r == nil {
		r = b.newRecord()
		b.cache[addr] = r
	}
	r.addr, r.leaf, r.tomb = addr, leaf, tomb
	r.version = b.nextVer
	b.nextVer++
	fillBlockBuf(r.data, data)
}

// noteOccupancy records the post-access trusted occupancy (live + frozen
// records). Occupancy NEVER steers I/O — it is telemetry only, reported
// through the stash counters.
//
//oram:hotpath
func (b *BucketHash) noteOccupancy() {
	n := len(b.cache) + len(b.frozen)
	if n > b.maxSeen {
		b.maxSeen = n
	}
	if n > b.cacheCap {
		b.overflows++
	}
}

//
//oram:hotpath
func (b *BucketHash) syncStats() {
	if m := uint64(b.maxSeen); m > b.ctr.StashMax {
		b.ctr.StashMax = m
	}
	b.ctr.StashOverflow = b.overflows
}

// beUint64 is binary.BigEndian.Uint64 without the import noise in the
// slot scanners.
//
//oram:hotpath
func beUint64(s []byte) uint64 {
	_ = s[7]
	return uint64(s[7]) | uint64(s[6])<<8 | uint64(s[5])<<16 | uint64(s[4])<<24 |
		uint64(s[3])<<32 | uint64(s[2])<<40 | uint64(s[1])<<48 | uint64(s[0])<<56
}

var (
	_ backend.Backend    = (*BucketHash)(nil)
	_ backend.Maintainer = (*BucketHash)(nil)
)
