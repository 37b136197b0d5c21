package backend

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"freecursive/internal/crypt"
	"freecursive/internal/mem"
	"freecursive/internal/stash"
	"freecursive/internal/stats"
	"freecursive/internal/tree"
)

// PathORAM is the functional Path ORAM backend. It stores sealed buckets in
// any mem.Backend (in-process map, durable page file, remote bucketd — the
// controller cannot tell), decrypts/encrypts with a
// crypt.BucketCipher, and maintains the Path ORAM invariant: every block is
// on the path of its mapped leaf or in the stash.
//
// The access loop is allocation-free in steady state: bucket bodies, sealed
// buckets, decoded blocks, and the result payload all live in scratch
// buffers owned by the PathORAM, and block payload buffers recirculate
// through a free list as blocks move between the tree and the stash. This
// leans on the mem.Backend ownership contract (Read returns memory we must
// not retain, Write does not retain what we pass) and on the stash returning
// evicted payload buffers to the caller.
type PathORAM struct {
	FaultLatch
	geom  tree.Geometry
	store mem.Backend
	split mem.SplitPathReader // store, when it can keep several path reads in flight; else nil
	ciph  *crypt.BucketCipher // nil: plaintext buckets (fast functional mode)
	stash *stash.Stash
	ctr   *stats.Counters

	// Treetop cache: the buckets of the top topLevels levels live here, in
	// trusted memory next to the stash, as plaintext bodies indexed by heap
	// index (nil: never written, all dummies). An access reads, opens, seals
	// and writes only the levels below. accessBytes is what it moves.
	topLevels   int
	top         [][]byte
	accessBytes uint64

	// fly is the in-flight window: accesses begun and not yet completed,
	// oldest first. freeFly recycles their records.
	fly     []*flight
	freeFly []*flight

	// Scratch buffers reused across accesses.
	bodyBuf   []byte        // decrypted bucket body (path read)
	encBuf    []byte        // plaintext bucket body (path write)
	incoming  []stash.Block // blocks decoded from one bucket
	resultBuf []byte        // Result.Data backing store
	// Path I/O scratch: per-level receive slots for the path read and
	// per-level sealed buckets for WritePath (each level needs its own buffer
	// because the whole path is in flight at once).
	pathBufs   [][]byte
	sealedBufs [][]byte
	// freeData recycles block payload buffers (BlockBytes each): decoded
	// path blocks take one, evicted/removed blocks give theirs back.
	freeData [][]byte
}

// flight is one access between Begin and Complete: everything Complete needs
// that the accesses begun around it must not share.
type flight struct {
	req     Request
	pathIdx []uint64
	// seeds holds, per level, the seed the bucket was last sealed under as
	// far as this access knows: read off the bucket for the levels it reads
	// fresh, handed down by the older access that rewrote it for stale ones.
	seeds []uint64
	// stale counts the leading levels whose buckets an older in-flight
	// access also reads: this access's copy of the ones it fetched from
	// memory, levels [topLevels, stale), predates that access's write-back,
	// so it is ignored. The treetop levels are read at Complete, after every
	// older write-back, and are never stale.
	stale int
	// payload is the OpWrite payload, copied at Begin (the caller reuses its
	// buffer before Complete). It becomes the block's buffer in the stash.
	payload []byte
	// orphaned is set when an older access of the window failed: what this
	// one assumed stale was never rewritten, so it must not run either.
	orphaned error
}

// Config parameterizes a functional backend.
type Config struct {
	Geometry      tree.Geometry
	Store         mem.Backend         // nil: fresh in-process map store
	Cipher        *crypt.BucketCipher // nil: plaintext
	StashCapacity int                 // 0: stash.DefaultCapacity
	Counters      *stats.Counters     // nil: fresh counters
	// TreetopBytes budgets the treetop cache: as many whole levels from the
	// root as have plaintext bucket bodies fitting in it are kept in trusted
	// memory, the leaf level never. 0: DefaultTreetopBytes; negative: none.
	// Production builds leave it 0 — the public API has no option for it;
	// internal/exp switches the cache off to stay the paper's full-path
	// model, and tests pick a depth with it.
	TreetopBytes int
}

// DefaultTreetopBytes is the treetop budget of a tree that names none: the
// PLB's default size (§7.1.3), so the two on-chip caches cost the same.
const DefaultTreetopBytes = 64 << 10

// ErrTreetop marks a treetop that RestoreTreetop refused: restored trusted
// state that breaks the invariants every access relies on.
var ErrTreetop = errors.New("malformed treetop")

// NewPathORAM builds a functional backend.
func NewPathORAM(cfg Config) (*PathORAM, error) {
	if cfg.Geometry.Z < 1 || cfg.Geometry.BlockBytes < 1 {
		return nil, fmt.Errorf("backend: invalid geometry %+v", cfg.Geometry)
	}
	st := cfg.Store
	if st == nil {
		st = mem.NewStore()
	}
	cap := cfg.StashCapacity
	if cap == 0 {
		cap = stash.DefaultCapacity
	}
	ctr := cfg.Counters
	if ctr == nil {
		ctr = &stats.Counters{}
	}
	p := &PathORAM{
		geom:  cfg.Geometry,
		store: st,
		ciph:  cfg.Cipher,
		stash: stash.New(cap),
		ctr:   ctr,
	}
	if sp, ok := st.(mem.SplitPathReader); ok && sp.ReadSignal() != nil {
		p.split = sp
	}
	budget := cfg.TreetopBytes
	if budget == 0 {
		budget = DefaultTreetopBytes
	}
	fit := max(budget, 0) / p.bodyBytes() // bucket bodies the budget holds
	k := 0
	for k < p.geom.L && 1<<(k+1)-1 <= fit {
		k++
	}
	p.installTreetop(k, make([][]byte, 1<<k-1))
	p.bodyBuf = make([]byte, 0, p.bodyBytes())
	p.encBuf = make([]byte, p.bodyBytes())
	p.resultBuf = make([]byte, p.geom.BlockBytes)
	return p, nil
}

// Geometry returns the tree geometry.
func (p *PathORAM) Geometry() tree.Geometry { return p.geom }

// Counters returns the shared counter set.
func (p *PathORAM) Counters() *stats.Counters { return p.ctr }

// Stash exposes the stash for invariant checks in tests.
func (p *PathORAM) Stash() *stash.Stash { return p.stash }

// Store exposes untrusted memory for adversarial tests.
func (p *PathORAM) Store() mem.Backend { return p.store }

// Cipher exposes the bucket cipher (nil in plaintext mode) so a durable
// controller can persist and restore the global seed register.
func (p *PathORAM) Cipher() *crypt.BucketCipher { return p.ciph }

// Close releases the untrusted store's resources.
func (p *PathORAM) Close() error { return p.store.Close() }

// --- treetop cache ---------------------------------------------------------
//
// The Path ORAM invariant — a block is on the path to its leaf or in the
// stash — does not say where a bucket is kept. The top levels are the ones
// every path shares most, so they are kept in trusted memory, as plaintext,
// and only the rest of a path ever crosses the trust boundary: Phantom's
// treetop cache. What memory sees of an access is still a function of its
// leaf alone — the suffix pathIdx[topLevels:], read then written — and every
// bucket that does leave is sealed exactly as before.

// installTreetop makes top, one body slot per bucket of the first k levels,
// the treetop.
func (p *PathORAM) installTreetop(k int, top [][]byte) {
	p.topLevels, p.top = k, top
	p.accessBytes = 2 * uint64(p.geom.L+1-k) * WireBucketBytes(p.geom)
}

// TreetopLevels returns how many levels, counted from the root, the treetop
// cache holds: a constant of the configuration (or of the snapshot resumed).
func (p *PathORAM) TreetopLevels() int { return p.topLevels }

// TreetopBytes returns the trusted memory the treetop occupies once every
// cached bucket has been written: like TreetopLevels, a constant.
func (p *PathORAM) TreetopBytes() int { return len(p.top) * p.bodyBytes() }

// TreetopBucket is one cached bucket as a snapshot carries it.
type TreetopBucket struct {
	Index  uint64 // heap index
	Blocks []stash.Block
}

// Treetop returns the cache's level count and a deep copy of every cached
// bucket that holds a block, in index order: with the stash, the trusted
// state a durable controller persists.
func (p *PathORAM) Treetop() (int, []TreetopBucket) {
	var out []TreetopBucket
	for idx, body := range p.top {
		if body == nil {
			continue
		}
		// decodeBucket draws from the free list; these buffers leave for
		// good, so the list just refills from the allocator later.
		if blocks := p.decodeBucket(body, nil); len(blocks) > 0 {
			out = append(out, TreetopBucket{Index: uint64(idx), Blocks: blocks})
		}
	}
	return p.topLevels, out
}

// RestoreTreetop replaces the treetop with one of the given level count
// holding the given buckets — what Treetop returned when the snapshot was
// taken; the level count need not be the configured one. The stash must be
// restored first. A treetop no run of accesses could have produced is
// refused with an error wrapping ErrTreetop and changes nothing.
func (p *PathORAM) RestoreTreetop(levels int, buckets []TreetopBucket) error {
	if len(p.fly) > 0 {
		return fmt.Errorf("backend: RestoreTreetop with %d accesses in flight", len(p.fly))
	}
	if levels < 0 || levels > p.geom.L {
		return fmt.Errorf("backend: %w: %d levels, the tree admits 0..%d", ErrTreetop, levels, p.geom.L)
	}
	top := make([][]byte, 1<<levels-1)
	seen := make(map[uint64]bool)
	for _, bk := range buckets {
		if bk.Index >= uint64(len(top)) {
			return fmt.Errorf("backend: %w: bucket %d is below its %d levels", ErrTreetop, bk.Index, levels)
		}
		if top[bk.Index] != nil {
			return fmt.Errorf("backend: %w: bucket %d listed twice", ErrTreetop, bk.Index)
		}
		if len(bk.Blocks) > p.geom.Z {
			return fmt.Errorf("backend: %w: bucket %d holds %d blocks, Z=%d", ErrTreetop, bk.Index, len(bk.Blocks), p.geom.Z)
		}
		level := bits.Len64(bk.Index+1) - 1
		for _, b := range bk.Blocks {
			switch {
			case !p.geom.ValidLeaf(b.Leaf) || p.geom.NodeIndex(b.Leaf, level) != bk.Index:
				return fmt.Errorf("backend: %w: a block of bucket %d is mapped to a leaf whose path misses it", ErrTreetop, bk.Index)
			case len(b.Data) > p.geom.BlockBytes:
				return fmt.Errorf("backend: %w: a block of bucket %d carries %d bytes, blocks are %d", ErrTreetop, bk.Index, len(b.Data), p.geom.BlockBytes)
			case seen[b.Addr] || p.stash.Get(b.Addr) != nil:
				return fmt.Errorf("backend: %w: a block of bucket %d is also held elsewhere in trusted memory", ErrTreetop, bk.Index)
			}
			seen[b.Addr] = true
		}
		top[bk.Index] = p.encodeBucket(make([]byte, p.bodyBytes()), bk.Blocks)
	}
	p.installTreetop(levels, top)
	return nil
}

// writeTop stores blocks as the cached bucket idx. A bucket's body is
// allocated the first time a block lands in it and reused ever after.
//
//oram:hotpath
func (p *PathORAM) writeTop(idx uint64, blocks []stash.Block) {
	body := p.top[idx]
	if body == nil {
		if len(blocks) == 0 {
			return
		}
		body = p.newTopBody()
		p.top[idx] = body
	}
	p.encodeBucket(body, blocks)
}

// newTopBody allocates one cached bucket's body.
//
//oram:offhotpath runs once per treetop bucket, on its first write; the AllocsPerRun gates measure after warm-up
func (p *PathORAM) newTopBody() []byte { return make([]byte, p.bodyBytes()) }

// --- block payload buffer recycling ---------------------------------------

// newBlockBuf returns a BlockBytes payload buffer with arbitrary contents,
// reusing a recycled one when available.
//
//oram:hotpath
func (p *PathORAM) newBlockBuf() []byte {
	if n := len(p.freeData); n > 0 {
		buf := p.freeData[n-1]
		p.freeData[n-1] = nil
		p.freeData = p.freeData[:n-1]
		return buf
	}
	//oramlint:allow hotpathalloc free-list miss; steady state recycles buffers and the AllocsPerRun gates pin the budget
	return make([]byte, p.geom.BlockBytes)
}

// recycleBlockBuf returns a payload buffer to the free list. Foreign-sized
// buffers (e.g. handed in by a snapshot restore) are dropped.
//
//oram:hotpath
func (p *PathORAM) recycleBlockBuf(buf []byte) {
	if len(buf) == p.geom.BlockBytes {
		p.freeData = append(p.freeData, buf)
	}
}

// fillBlockBuf copies src into dst, zero-padding the tail (shorter writes
// are zero-extended to the block size, as the Request contract promises).
//
//oram:hotpath
func fillBlockBuf(dst, src []byte) {
	n := copy(dst, src)
	clear(dst[n:])
}

// --- bucket serialization ------------------------------------------------
//
// Plaintext bucket body layout, per slot:
//   [0]    flags (slotValid or 0)
//   [1:9]  address (big endian)
//   [9:17] leaf (big endian)
//   [17:17+B] payload
// The body is Z slots long. Dummy slots are all zeros. When sealed, the
// body is encrypted and prefixed with the plaintext 8-byte seed.

const (
	slotValid  = 0x01
	slotHeader = 17
)

func (p *PathORAM) slotBytes() int { return slotHeader + p.geom.BlockBytes }
func (p *PathORAM) bodyBytes() int { return p.geom.Z * p.slotBytes() }

// SealedBucketBytes returns the largest sealed bucket PathORAM ever hands
// to untrusted memory for geometry g: the Z-slot plaintext body plus the
// encryption seed prefix. File-backed mem stores size their slots with it.
func SealedBucketBytes(g tree.Geometry) int {
	return crypt.SeedBytes + g.Z*(slotHeader+g.BlockBytes)
}

// encodeBucket serializes blocks into body, a bodyBytes buffer, and returns
// it.
//
//oram:hotpath
func (p *PathORAM) encodeBucket(body []byte, blocks []stash.Block) []byte {
	clear(body) // dummy slots must read as all zeros
	for i, b := range blocks {
		s := body[i*p.slotBytes():]
		s[0] = slotValid
		binary.BigEndian.PutUint64(s[1:9], b.Addr)
		binary.BigEndian.PutUint64(s[9:17], b.Leaf)
		copy(s[slotHeader:slotHeader+p.geom.BlockBytes], b.Data)
	}
	return body
}

// decodeBucket appends the real blocks found in body to dst. Each decoded
// block's Data is a free-list buffer owned by the caller (return it with
// recycleBlockBuf or hand it to the stash).
//
//oram:hotpath
func (p *PathORAM) decodeBucket(body []byte, dst []stash.Block) []stash.Block {
	if len(body) != p.bodyBytes() {
		return dst // tampered to a wrong size: nothing decodable
	}
	for i := 0; i < p.geom.Z; i++ {
		s := body[i*p.slotBytes():]
		if s[0] != slotValid {
			continue
		}
		data := p.newBlockBuf()
		copy(data, s[slotHeader:slotHeader+p.geom.BlockBytes])
		dst = append(dst, stash.Block{
			Addr: binary.BigEndian.Uint64(s[1:9]),
			Leaf: binary.BigEndian.Uint64(s[9:17]),
			Data: data,
		})
	}
	return dst
}

// --- access ---------------------------------------------------------------
//
// # In-flight window
//
// A path access is split at its one wait: Begin issues the path read,
// Complete absorbs the path, serves the request, evicts and writes the path
// back. Over a memory that can keep reads in flight (mem.SplitPathReader)
// several accesses may sit between the two, completing strictly in the
// order they began; over any other memory the read happens inside Complete
// and only one access may be begun at a time. Access is Begin then Complete.
//
// The memory applies reads and write-backs in the order they were sent. So
// when access j begins while an older access i is still in flight, j's read
// is sent before i's write-back, and every bucket in memory on both paths —
// the paths share a prefix from the root — reaches j as it was BEFORE i
// rewrote it. One rule keeps the tree consistent. Such a bucket is stale in
// j's read:
//
//   - j ignores it. Whatever real blocks it held were absorbed into the
//     stash by the access that read it fresh, which completes before j.
//   - i's eviction puts nothing in it (it is written all-dummy): j will
//     overwrite it without having seen what i put there. Blocks that could
//     only go there wait in the stash for one access.
//   - j inherits the seed i wrote it under. Resealing above the seed j
//     read would reuse i's pad under the per-bucket scheme (§6.4).
//
// The treetop levels are outside the rule: they never travel, j reads them
// at its Complete — after i's — and i evicts into them freely. With k cached
// levels and a prefix of s shared buckets, the stale band is [k, s), empty
// whenever the paths part inside the treetop.
//
// Every access still reads and writes all of its path below the treetop,
// and which buckets are stale is a function of the leaves in the window —
// public — alone. A second access to the SAME address needs no special
// case: its block can only live on the prefix its two paths share, so when
// the later access completes it is in the stash or in a cached bucket of
// that prefix, which the access reads fresh.

// Access performs one backend operation. See the Op documentation for
// semantics. The returned Result.Data is reusable scratch owned by the
// backend: it is only valid until the next Access or Complete, and callers
// that retain the payload must copy it. A path operation must not be mixed
// into a window of begun accesses; OpAppend touches only the stash and may.
//
//oram:hotpath
func (p *PathORAM) Access(req Request) (Result, error) {
	if req.Op == OpAppend {
		return p.append(req)
	}
	if len(p.fly) > 0 {
		return Result{}, fmt.Errorf("backend: Access with %d accesses in flight", len(p.fly))
	}
	if err := p.Begin(req); err != nil {
		return Result{}, err
	}
	return p.Complete()
}

func (p *PathORAM) append(req Request) (Result, error) {
	if err := p.Fault(); err != nil {
		return Result{}, err
	}
	if !p.geom.ValidLeaf(req.Leaf) {
		return Result{}, fmt.Errorf("backend: append leaf out of range (L=%d)", p.geom.L)
	}
	if p.stash.Get(req.Addr) != nil {
		return Result{}, fmt.Errorf("backend: append would duplicate a resident block")
	}
	data := p.newBlockBuf()
	fillBlockBuf(data, req.Data)
	p.stash.Put(stash.Block{Addr: req.Addr, Leaf: req.Leaf, Data: data})
	p.ctr.Appends++
	p.stash.Note()
	p.syncStashStats()
	return Result{Found: true}, nil
}

// sharedLevels returns how many buckets, counted from the root, the paths
// to leaves a and b have in common (at least the root).
//
//oram:hotpath
func (p *PathORAM) sharedLevels(a, b uint64) int {
	return p.geom.DeepestLegalLevel(a, b) + 1
}

// Begin starts a read, write or readrmv: it validates the request, joins the
// in-flight window and, over a split-phase memory, sends the path read. The
// request's Data is copied; its Update runs inside Complete.
//
//oram:hotpath
func (p *PathORAM) Begin(req Request) error {
	if err := p.Fault(); err != nil {
		return err
	}
	switch req.Op {
	case OpRead, OpWrite, OpReadRmv:
	default:
		return fmt.Errorf("backend: unknown op %v", req.Op)
	}
	if !p.geom.ValidLeaf(req.Leaf) {
		return fmt.Errorf("backend: leaf out of range (L=%d)", p.geom.L)
	}
	if req.Op != OpReadRmv && !p.geom.ValidLeaf(req.NewLeaf) {
		return fmt.Errorf("backend: new leaf out of range (L=%d)", p.geom.L)
	}
	if p.split == nil && len(p.fly) > 0 {
		return fmt.Errorf("backend: this memory reads paths synchronously; complete the access in flight first")
	}

	var f *flight
	if n := len(p.freeFly); n > 0 {
		f, p.freeFly = p.freeFly[n-1], p.freeFly[:n-1]
	} else {
		//oramlint:allow hotpathalloc one record per window slot, allocated the first time the window gets that deep and recycled ever after; pinned by the AllocsPerRun gates
		f = new(flight)
	}
	f.req = req
	f.pathIdx = p.geom.PathIndices(req.Leaf, f.pathIdx)
	if cap(f.seeds) < len(f.pathIdx) {
		//oramlint:allow hotpathalloc one-time scratch growth to path length; steady state reuses it, pinned by the AllocsPerRun gates
		f.seeds = make([]uint64, len(f.pathIdx))
	}
	f.seeds = f.seeds[:len(f.pathIdx)]
	clear(f.seeds)
	f.stale, f.orphaned = 0, nil
	for _, older := range p.fly {
		f.stale = max(f.stale, p.sharedLevels(older.req.Leaf, req.Leaf))
		if older.orphaned != nil {
			f.orphaned = older.orphaned // it would plan around a write-back that will not happen
		}
	}
	if p.split != nil {
		if err := p.split.IssueReadPath(f.pathIdx[p.topLevels:]); err != nil {
			p.freeFly = append(p.freeFly, f)
			return p.Latch(fmt.Errorf("backend: path read: %w", err))
		}
	}
	if req.Op == OpWrite {
		f.payload = p.newBlockBuf()
		fillBlockBuf(f.payload, req.Data)
	}
	f.req.Data = nil
	p.fly = append(p.fly, f)
	return nil
}

// InFlight returns how many accesses are begun and not completed.
func (p *PathORAM) InFlight() int { return len(p.fly) }

// Ready reports whether Complete would return without waiting on memory.
func (p *PathORAM) Ready() bool { return p.split == nil || p.split.ReadReady() }

// Signal returns the memory's hint channel for Ready (see
// mem.SplitPathReader.ReadSignal), or nil when the memory reads paths
// synchronously — then at most one access can be in flight and Complete
// never waits on anything but the read itself.
func (p *PathORAM) Signal() <-chan struct{} {
	if p.split == nil {
		return nil
	}
	return p.split.ReadSignal()
}

// Abandon gives up every access in flight on account of cause: its Complete
// still takes the answer to the read already sent, so that the memory's
// stream stays in step and nothing is left owed, but absorbs nothing, writes
// nothing back and returns an error wrapping cause.
func (p *PathORAM) Abandon(cause error) {
	for _, f := range p.fly {
		if f.orphaned == nil {
			f.orphaned = cause
		}
	}
}

// Complete finishes the oldest begun access and returns its result.
//
//oram:hotpath
func (p *PathORAM) Complete() (Result, error) {
	if len(p.fly) == 0 {
		return Result{}, fmt.Errorf("backend: Complete without an access in flight")
	}
	f := p.fly[0]
	p.fly = p.fly[:copy(p.fly, p.fly[1:])]
	res, err := p.complete(f)
	if err != nil {
		// The accesses begun behind f planned around its write-back: they
		// skip the buckets it was to rewrite and expect its blocks in the
		// stash. They fail with it, and a storage fault refuses every access
		// after them.
		p.Abandon(p.Latch(err))
	}
	if f.payload != nil { // not handed to the stash: the access failed first
		p.recycleBlockBuf(f.payload)
		f.payload = nil
	}
	f.req = Request{}
	p.freeFly = append(p.freeFly, f)
	return res, err
}

//
//oram:hotpath
func (p *PathORAM) complete(f *flight) (Result, error) {
	req := f.req

	// Step 2 (§3.1): read and decrypt all buckets along the path; real
	// blocks enter the stash. The levels below the treetop are one store
	// operation (one round trip on a remote store). The PathReader contract
	// keeps every level's bucket simultaneously valid while we absorb them
	// in path order, the cached levels first; stale levels are skipped.
	k := p.topLevels
	for len(p.pathBufs) < len(f.pathIdx) {
		p.pathBufs = append(p.pathBufs, nil)
	}
	bufs := p.pathBufs[:len(f.pathIdx)]
	var err error
	if p.split != nil {
		err = p.split.CompleteReadPath(f.pathIdx[k:], bufs[k:])
	} else {
		err = p.store.ReadPath(f.pathIdx[k:], bufs[k:])
	}
	if err != nil {
		return Result{}, fmt.Errorf("backend: path read: %w", err)
	}
	if f.orphaned != nil {
		// The read was consumed only to keep the memory's stream in step.
		return Result{}, fmt.Errorf("backend: abandoned, an access begun earlier failed: %w", f.orphaned)
	}
	for _, idx := range f.pathIdx[:k] {
		if body := p.top[idx]; body != nil {
			p.absorbBody(body)
			// Its blocks are in the stash now. Emptied here, not when
			// writePath rewrites it, so that trusted memory never holds a
			// block twice — whatever cuts the access short, Treetop and
			// the stash still make a snapshot RestoreTreetop accepts.
			clear(body)
		}
	}
	for i := max(k, f.stale); i < len(f.pathIdx); i++ {
		p.absorbBucket(f, i, bufs[i])
	}

	// Steps 3-4: find the block of interest. The result payload is copied
	// out first, so the stash block can then be mutated (or removed) in
	// place without a second buffer.
	res := Result{}
	blk := p.stash.Get(req.Addr)
	res.Found = blk != nil
	res.Data = p.resultBuf
	if blk != nil {
		copy(res.Data, blk.Data)
	} else {
		clear(res.Data)
	}

	switch req.Op {
	case OpReadRmv:
		if blk != nil {
			data := blk.Data
			p.stash.Remove(req.Addr)
			p.recycleBlockBuf(data)
		}
	case OpRead:
		if blk == nil {
			// First-ever access: the ORAM is logically zero-initialized.
			buf := p.newBlockBuf()
			clear(buf)
			p.stash.Put(stash.Block{Addr: req.Addr, Leaf: req.NewLeaf, Data: buf})
			blk = p.stash.Get(req.Addr)
		}
		if req.Update != nil {
			upd := req.Update(blk.Data, res.Found)
			fillBlockBuf(blk.Data, upd)
		}
		blk.Leaf = req.NewLeaf
	case OpWrite:
		if blk == nil {
			p.stash.Put(stash.Block{Addr: req.Addr, Leaf: req.NewLeaf, Data: f.payload})
		} else {
			p.recycleBlockBuf(blk.Data)
			blk.Data = f.payload
			blk.Leaf = req.NewLeaf
		}
		f.payload = nil
	}

	// Step 5: evict as much as possible back to the same path.
	if err := p.writePath(f); err != nil {
		return Result{}, err
	}

	p.ctr.BackendAccesses++
	if req.PosMap {
		p.ctr.PosMapBytes += p.accessBytes
	} else {
		p.ctr.DataBytes += p.accessBytes
	}
	p.stash.Note()
	p.syncStashStats()
	return res, nil
}

// absorbBucket feeds one sealed bucket of f's path (level i) through
// decryption and decoding into the stash. A nil sealed bucket was never
// written (all dummies); an undecryptable one contributes nothing —
// structural garbage is the adversary's doing and is handled by the
// integrity layers above, while errors stay reserved for real I/O faults.
//
//oram:hotpath
func (p *PathORAM) absorbBucket(f *flight, i int, sealed []byte) {
	if sealed == nil {
		return
	}
	body := sealed
	if p.ciph != nil {
		var seed uint64
		var err error
		body, seed, err = p.ciph.OpenTo(p.bodyBuf[:0], f.pathIdx[i], sealed)
		if err != nil {
			return
		}
		p.bodyBuf = body // keep any grown capacity for the next bucket
		f.seeds[i] = seed
	}
	p.absorbBody(body)
}

// absorbBody decodes one plaintext bucket body into the stash.
//
//oram:hotpath
func (p *PathORAM) absorbBody(body []byte) {
	p.incoming = p.decodeBucket(body, p.incoming[:0])
	for _, b := range p.incoming {
		// A tampered bucket can decode garbage; never let it displace a
		// block already in the trusted stash, and drop blocks whose leaf
		// is not even a valid label.
		if !p.geom.ValidLeaf(b.Leaf) || p.stash.Get(b.Addr) != nil {
			p.recycleBlockBuf(b.Data)
			continue
		}
		p.stash.Put(b)
	}
}

// writePath evicts as much of the stash as fits back onto f's path, rewrites
// the cached levels in place, seals every level below them into its own
// scratch buffer and hands those to the store in one WritePath. Each level
// needs a private sealed copy (the store may not retain our slices but does
// read them all within the call); a PathWriter is allowed to pipeline the
// write-back behind the next access, in which case a deferred failure
// surfaces from a later store operation wrapping mem.ErrIO.
//
// Every access still in the window began after f and before this
// write-back, so the buckets below the treetop that f shares with it are
// stale in its read: they take no blocks here, and it is told the seeds
// they are now sealed under.
//
//oram:hotpath
func (p *PathORAM) writePath(f *flight) error {
	k := p.topLevels
	shared := 0
	for _, younger := range p.fly {
		shared = max(shared, p.sharedLevels(younger.req.Leaf, f.req.Leaf))
	}
	perLevel := p.stash.EvictForPath(p.geom, f.req.Leaf, k, shared)
	for len(p.sealedBufs) < len(perLevel) {
		p.sealedBufs = append(p.sealedBufs, nil)
	}
	for lev, blocks := range perLevel {
		idx := f.pathIdx[lev]
		switch {
		case lev < k:
			p.writeTop(idx, blocks)
		case p.ciph != nil:
			body := p.encodeBucket(p.encBuf, blocks)
			p.sealedBufs[lev] = p.ciph.SealTo(p.sealedBufs[lev][:0], idx, f.seeds[lev], body)
			f.seeds[lev] = binary.BigEndian.Uint64(p.sealedBufs[lev])
		default:
			p.sealedBufs[lev] = append(p.sealedBufs[lev][:0], p.encodeBucket(p.encBuf, blocks)...)
		}
		// The evicted blocks are serialized; their payload buffers go back
		// into circulation for the next path read.
		for _, b := range blocks {
			p.recycleBlockBuf(b.Data)
		}
	}
	for _, younger := range p.fly {
		if n := p.sharedLevels(younger.req.Leaf, f.req.Leaf); n > k {
			copy(younger.seeds[k:n], f.seeds[k:n])
		}
	}
	if err := p.store.WritePath(f.pathIdx[k:len(perLevel)], p.sealedBufs[k:len(perLevel)]); err != nil {
		return fmt.Errorf("backend: path write: %w", err)
	}
	return nil
}

func (p *PathORAM) syncStashStats() {
	if m := uint64(p.stash.MaxSeen()); m > p.ctr.StashMax {
		p.ctr.StashMax = m
	}
	p.ctr.StashOverflow = uint64(p.stash.Overflows())
}
