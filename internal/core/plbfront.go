package core

import (
	"fmt"
	"math/rand/v2"

	"freecursive/internal/backend"
	"freecursive/internal/crypt"
	"freecursive/internal/plb"
	"freecursive/internal/posmap"
	"freecursive/internal/stats"
)

// PLBFrontend is the paper's Frontend: a PosMap Lookaside Buffer in front
// of a single unified ORAM tree holding both data and PosMap blocks (§4),
// optionally using the compressed PosMap format (§5) and PMMAC integrity
// verification (§6). It drives an unmodified Position-based ORAM Backend.
type PLBFrontend struct {
	be     backend.Backend
	split  splitBackend // be, when its accesses can be begun and completed separately; else nil
	plb    *plb.PLB
	format posmap.Format // layout of PosMap blocks (levels >= 1); nil iff H == 1
	onchip *posmap.OnChip
	mac    *crypt.MAC // nil: no integrity

	logX      uint
	h         int    // recursion depth incl. the data "level 0"
	n         uint64 // data block count
	dataBytes int    // block payload visible to the LLC
	macBytes  int    // MAC tag bytes prepended to each stored block

	ctr *stats.Counters
	rng *rand.Rand

	violated  bool
	violation error

	// pend holds the started accesses whose results Finish has not handed
	// out yet, oldest first; freePend recycles their records.
	pend     []*pendingAccess
	freePend []*pendingAccess

	// Hot-path scratch. sealBuf backs seal's output (always consumed — i.e.
	// copied — by the backend before the next seal call); writeBuf holds
	// the zero-padded payload of a data write for the duration of one
	// access; freeBlocks recycles dataBytes-sized PLB block buffers, fed by
	// evicted PLB victims after their append and drained by PosMap-block
	// fetches, so steady-state PMMAC verification allocates nothing.
	sealBuf    []byte
	writeBuf   []byte
	freeBlocks [][]byte

	// OnBackendAccess, if set, observes every unified-tree access (op and
	// leaf) — the adversary's view used by the security tests.
	OnBackendAccess func(op backend.Op, leaf uint64)
}

// splitBackend is the split-phase form of backend.Backend that
// backend.PathORAM offers: Begin issues an access's path read, Complete
// finishes the oldest begun access. Signal is nil when the memory under the
// backend cannot keep reads in flight; Ready says whether Complete would
// wait. A backend without it (bhoram, Accounting, a decorator that embeds
// the plain interface) is simply accessed inside Start.
type splitBackend interface {
	Begin(req backend.Request) error
	Complete() (backend.Result, error)
	// Abandon makes Complete, for every access begun so far, only consume
	// the read already issued and fail with cause.
	Abandon(cause error)
	Ready() bool
	Signal() <-chan struct{}
}

// pendingAccess is one data access between Start and Finish.
type pendingAccess struct {
	write bool
	m     mapping
	out   []byte // the value Finish returns
	err   error
	// done: the backend access is over and out/err are final. Until then the
	// access is in the backend's in-flight window.
	done bool
}

// PLBConfig parameterizes a PLBFrontend.
type PLBConfig struct {
	// Backend is the unified ORAM tree. Its Geometry().BlockBytes must be
	// dataBytes + MAC tag bytes (if MAC is set).
	Backend backend.Backend
	// NBlocks is the data-block capacity N.
	NBlocks uint64
	// DataBytes is the LLC-visible block size (64 or 128 in the paper).
	DataBytes int
	// Format is the PosMap block layout; determines X. May be nil only if
	// recursion depth is 1 (no PosMap blocks at all).
	Format posmap.Format
	// LogX is log2(Format.X()).
	LogX uint
	// MaxOnChipEntries bounds the on-chip PosMap; recursion depth H is the
	// smallest that honors it. Explicit H wins if nonzero.
	MaxOnChipEntries uint64
	// H, if nonzero, fixes the recursion depth explicitly.
	H int
	// PLBCapacityBytes and PLBWays organize the PLB (§4.2.3). A capacity of
	// zero disables the PLB only if H == 1.
	PLBCapacityBytes int
	PLBWays          int
	// MAC enables PMMAC. The on-chip PosMap then runs in counter mode.
	MAC *crypt.MAC
	// Rand drives leaf remapping for non-PRF formats.
	Rand *rand.Rand
	// PRF is required when MAC is set (on-chip counter mode) or when Format
	// is PRF-based.
	PRF *crypt.PRF
	// Counters is the shared stat sink (defaults to Backend.Counters()).
	Counters *stats.Counters
}

// NewPLB builds the paper's frontend.
func NewPLB(cfg PLBConfig) (*PLBFrontend, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("core: PLB frontend needs a backend")
	}
	if cfg.NBlocks == 0 {
		return nil, fmt.Errorf("core: NBlocks must be positive")
	}
	if cfg.Rand == nil {
		return nil, fmt.Errorf("core: Rand is required")
	}

	macBytes := 0
	if cfg.MAC != nil {
		macBytes = cfg.MAC.TagBytes()
		if cfg.PRF == nil {
			return nil, fmt.Errorf("core: PMMAC requires a PRF for on-chip counters")
		}
	}
	g := cfg.Backend.Geometry()
	if g.BlockBytes != cfg.DataBytes+macBytes {
		return nil, fmt.Errorf("core: backend block %dB != data %dB + mac %dB",
			g.BlockBytes, cfg.DataBytes, macBytes)
	}

	h := cfg.H
	if h == 0 {
		if cfg.MaxOnChipEntries == 0 {
			return nil, fmt.Errorf("core: need H or MaxOnChipEntries")
		}
		if cfg.Format == nil {
			h = 1
		} else {
			h = RecursionDepth(cfg.NBlocks, cfg.LogX, cfg.MaxOnChipEntries)
		}
	}
	if h > 1 {
		if cfg.Format == nil {
			return nil, fmt.Errorf("core: recursion depth %d requires a PosMap format", h)
		}
		if cfg.Format.X() != 1<<cfg.LogX {
			return nil, fmt.Errorf("core: format X=%d != 2^LogX=%d", cfg.Format.X(), 1<<cfg.LogX)
		}
		if cfg.Format.BlockBytes() > cfg.DataBytes {
			return nil, fmt.Errorf("core: PosMap block %dB exceeds data block %dB",
				cfg.Format.BlockBytes(), cfg.DataBytes)
		}
		if cfg.MAC != nil && !cfg.Format.HasCounters() {
			return nil, fmt.Errorf("core: PMMAC requires a counter-based PosMap format")
		}
	}

	top := TopEntries(cfg.NBlocks, cfg.LogX, h)
	var onchip *posmap.OnChip
	var err error
	if cfg.MAC != nil {
		onchip, err = posmap.NewOnChipCounter(top, cfg.PRF, g.L)
	} else {
		onchip, err = posmap.NewOnChipLeaf(top, g.L)
	}
	if err != nil {
		return nil, err
	}

	var cache *plb.PLB
	if h > 1 {
		ways := cfg.PLBWays
		if ways == 0 {
			ways = 1
		}
		cache, err = plb.New(cfg.PLBCapacityBytes, cfg.Format.BlockBytes(), ways)
		if err != nil {
			return nil, err
		}
	}

	ctr := cfg.Counters
	if ctr == nil {
		ctr = cfg.Backend.Counters()
	}
	split, _ := cfg.Backend.(splitBackend)
	return &PLBFrontend{
		be:        cfg.Backend,
		split:     split,
		plb:       cache,
		format:    cfg.Format,
		onchip:    onchip,
		mac:       cfg.MAC,
		logX:      cfg.LogX,
		h:         h,
		n:         cfg.NBlocks,
		dataBytes: cfg.DataBytes,
		macBytes:  macBytes,
		ctr:       ctr,
		rng:       cfg.Rand,
		sealBuf:   make([]byte, 0, macBytes+cfg.DataBytes),
		writeBuf:  make([]byte, cfg.DataBytes),
	}, nil
}

// newBlockBuf returns a dataBytes buffer with arbitrary contents, reusing a
// recycled PLB block buffer when one is available.
func (fe *PLBFrontend) newBlockBuf() []byte {
	if n := len(fe.freeBlocks); n > 0 {
		buf := fe.freeBlocks[n-1]
		fe.freeBlocks[n-1] = nil
		fe.freeBlocks = fe.freeBlocks[:n-1]
		return buf
	}
	return make([]byte, fe.dataBytes)
}

// recycleBlockBuf returns a retired PLB block buffer to the free list.
func (fe *PLBFrontend) recycleBlockBuf(buf []byte) {
	if len(buf) == fe.dataBytes {
		fe.freeBlocks = append(fe.freeBlocks, buf)
	}
}

// H returns the recursion depth.
func (fe *PLBFrontend) H() int { return fe.h }

// OnChipEntries returns the on-chip PosMap entry count.
func (fe *PLBFrontend) OnChipEntries() uint64 { return fe.onchip.Entries() }

// OnChipBits returns the on-chip PosMap size in bits.
func (fe *PLBFrontend) OnChipBits() uint64 { return fe.onchip.SizeBits() }

// PLB exposes the cache for inspection in tests.
func (fe *PLBFrontend) PLB() *plb.PLB { return fe.plb }

// OnChip exposes the on-chip PosMap for state snapshots.
func (fe *PLBFrontend) OnChip() *posmap.OnChip { return fe.onchip }

// Violation returns the latched integrity error, or nil while healthy.
func (fe *PLBFrontend) Violation() error {
	if fe.violated {
		return fe.violation
	}
	return nil
}

// Counters implements Frontend.
func (fe *PLBFrontend) Counters() *stats.Counters { return fe.ctr }

// blocksAtLevel returns how many blocks exist at a recursion level:
// N for data (level 0), ceil(N/X^i) for PosMap level i.
func (fe *PLBFrontend) blocksAtLevel(level int) uint64 {
	if level == 0 {
		return fe.n
	}
	return TopEntries(fe.n, fe.logX, level+1)
}

// access performs one synchronous backend operation: a PosMap block fetch,
// a PLB victim's append, a group-remap rewrite. It is a barrier — the data
// accesses still in flight complete first, in order — because what it reads
// or moves may be exactly what they are about to write.
func (fe *PLBFrontend) access(req backend.Request) (backend.Result, error) {
	fe.Drain()
	if fe.violated {
		return backend.Result{}, fe.violation
	}
	if fe.OnBackendAccess != nil {
		fe.OnBackendAccess(req.Op, req.Leaf)
	}
	return fe.be.Access(req)
}

// fail latches an integrity violation: the frontend refuses all further
// work, modeling the processor exception of §2. The data accesses in flight
// are abandoned — a controller that has latched a violation sends memory
// nothing more; finishing them only takes the answers already on their way.
func (fe *PLBFrontend) fail(format string, args ...any) error {
	fe.violated = true
	fe.violation = fmt.Errorf(format+": %w", append(args, ErrIntegrity)...)
	fe.ctr.Violations++
	if fe.split != nil {
		fe.split.Abandon(fe.violation)
	}
	return fe.violation
}

// checkFetched authenticates a payload fetched for the tagged block address
// at the given access counter and returns the data portion, copied into dst
// (which must hold dataBytes; pass nil to allocate — callers that hand the
// result to an owner with unbounded lifetime, like the public Access return
// value, do that). found=false is legal only for a counter of zero
// (never-accessed block, §6.2.2): PosMap counters tell us whether a block
// must exist.
func (fe *PLBFrontend) checkFetched(dst []byte, tag, counter uint64, payload []byte, found bool) ([]byte, error) {
	if dst == nil {
		dst = make([]byte, fe.dataBytes)
	}
	dst = dst[:fe.dataBytes]
	if fe.mac == nil {
		fillPadded(dst, payload)
		return dst, nil
	}
	if !found {
		if counter != 0 {
			return nil, fe.fail("core: fetched block absent despite a nonzero access counter")
		}
		clear(dst)
		return dst, nil
	}
	tagBytes, data := payload[:fe.macBytes], payload[fe.macBytes:]
	fe.ctr.MACChecks++
	fe.ctr.HashedBytes += uint64(fe.dataBytes) + 16
	if !fe.mac.Verify(tagBytes, counter, tag, data) {
		return nil, fe.fail("core: bad MAC on a fetched block")
	}
	fillPadded(dst, data)
	return dst, nil
}

// seal packs a block payload for storage: MAC(counter || tag || data) || data
// under PMMAC, plain data otherwise. The PMMAC result lives in the
// frontend's reusable seal scratch: it is valid until the next seal call,
// which every caller satisfies by handing it straight to a backend access
// (the backend copies before returning).
func (fe *PLBFrontend) seal(tag, counter uint64, data []byte) []byte {
	if fe.mac == nil {
		return data
	}
	fe.ctr.HashedBytes += uint64(fe.dataBytes) + 16
	out := fe.mac.AppendTag(fe.sealBuf[:0], counter, tag, data)
	out = append(out, data...)
	// Preserve the historical layout: the payload region is dataBytes wide,
	// zero-padded past len(data) (PLB blocks can be narrower than a data
	// block), and the MAC covers the unpadded data exactly as written.
	for len(out) < fe.macBytes+fe.dataBytes {
		out = append(out, 0)
	}
	fe.sealBuf = out
	return out
}

// mapping is a child block's position-map state extracted from its parent.
type mapping struct {
	curLeaf    uint64 // leaf to fetch the block from
	curCounter uint64 // counter the block was last sealed under
	newLeaf    uint64 // leaf the block is remapped to by this access
	newCounter uint64 // counter after the remap
}

// mapFromOnChip reads and advances the on-chip mapping for top-level block
// index idx with tagged address t.
func (fe *PLBFrontend) mapFromOnChip(idx, t uint64) mapping {
	var m mapping
	m.curCounter = fe.onchip.Counter(idx)
	m.curLeaf = fe.onchip.Leaf(idx, t, fe.rng)
	m.newLeaf = fe.onchip.Remap(idx, t, fe.rng)
	m.newCounter = fe.onchip.Counter(idx)
	return m
}

// mapFromParent reads and advances child j's mapping inside the parent PLB
// entry, performing a group remap if the child's individual counter rolls
// over (§5.2.2).
func (fe *PLBFrontend) mapFromParent(parent *plb.Entry, childTag uint64, j, childLevel int) (mapping, error) {
	var m mapping
	m.curCounter = fe.format.ChildCounter(parent.Block, j)
	m.curLeaf = fe.format.ChildLeaf(parent.Block, childTag, j)
	nl, needGroupRemap := fe.format.Remap(parent.Block, childTag, j, fe.rng)
	//oramlint:allow secretflow source: Format.Remap result; sink: group-remap branch — a group remap fires on counter-width rollover, a schedule the adversary can derive from the public access count (§5.2.2); the extra accesses it issues are part of the scheme's visible behavior
	if needGroupRemap {
		if err := fe.groupRemap(parent, childLevel); err != nil {
			return m, err
		}
		// The group remap moved every child (including this one) to the new
		// group counter; re-read the mapping and remap again, which now
		// succeeds with IC going 0 -> 1.
		m.curCounter = fe.format.ChildCounter(parent.Block, j)
		m.curLeaf = fe.format.ChildLeaf(parent.Block, childTag, j)
		nl, needGroupRemap = fe.format.Remap(parent.Block, childTag, j, fe.rng)
		if needGroupRemap {
			return m, fmt.Errorf("core: group remap did not clear counter overflow")
		}
	}
	m.newLeaf = nl
	m.newCounter = fe.format.ChildCounter(parent.Block, j)
	return m, nil
}

// Access implements Frontend: the §4.2.4 algorithm, started and finished
// back to back. It must not be mixed into a window of started accesses.
func (fe *PLBFrontend) Access(a0 uint64, write bool, data []byte) ([]byte, error) {
	if len(fe.pend) > 0 {
		return nil, fmt.Errorf("core: Access with %d started accesses unfinished", len(fe.pend))
	}
	if err := fe.Start(a0, write, data); err != nil {
		return nil, err
	}
	return fe.Finish()
}

// Start runs one access up to its one wait on memory: steps 1 and 2 of
// §4.2.4 (PLB lookup; PosMap block fetches, each a synchronous backend
// access that first completes the data accesses still in flight), then the
// data block's mapping advance, then the issue of its path read. The PLB
// and PosMap state it leaves is final, so the next Start may run before
// this access's Finish: started accesses finish in the order they started,
// and nothing about that order or their overlap depends on an address.
// data is consumed before Start returns.
//
// An error means the access did not start and has no Finish.
func (fe *PLBFrontend) Start(a0 uint64, write bool, data []byte) error {
	if fe.violated {
		return fe.violation
	}
	if a0 >= fe.n {
		return fmt.Errorf("core: address out of range (N=%d)", fe.n)
	}
	fe.ctr.Accesses++

	// Step 1 (PLB lookup): probe for the leaf of block a_i, held in block
	// a_{i+1}, for i = 0 .. H-2. On a miss at every level, fall back to the
	// on-chip PosMap, which maps block a_{H-1}.
	hit := fe.h - 1 // level whose mapping we hold; H-1 means "use on-chip"
	var parent *plb.Entry
	for i := 0; i <= fe.h-2; i++ {
		t := Tag(i+1, AddrAtLevel(a0, fe.logX, i+1))
		if e := fe.plb.Lookup(t); e != nil {
			fe.ctr.PLBHits++
			hit = i
			parent = e
			break
		}
		fe.ctr.PLBMisses++
	}

	// Step 2 (PosMap block accesses): fetch blocks a_hit .. a_1 with
	// readrmv, inserting each into the PLB.
	for lev := hit; lev >= 1; lev-- {
		ai := AddrAtLevel(a0, fe.logX, lev)
		t := Tag(lev, ai)

		var m mapping
		var err error
		if parent == nil {
			m = fe.mapFromOnChip(ai, t)
		} else {
			m, err = fe.mapFromParent(parent, t, ChildIndex(ai, fe.logX), lev)
			if err != nil {
				return err
			}
		}

		//oramlint:allow secretflow source: curLeaf from the parent PosMap block; sink: backend access request — revealing one one-time leaf per access is Path ORAM's deliberate disclosure (§3); the flagged witness is the Accounting reference backend's map, which models content, not obliviousness
		res, err := fe.access(backend.Request{
			Op: backend.OpReadRmv, Addr: t, Leaf: m.curLeaf, PosMap: true,
		})
		if err != nil {
			return err
		}
		// The fetched PosMap block moves into the PLB, which owns its buffer
		// until eviction; recycled victim buffers keep this allocation-free.
		//oramlint:allow secretflow source: backend access result; sink: found-disposition check inside checkFetched — presence and MAC verification happen in trusted controller memory after the path I/O completed; both outcomes cost the same backend traffic
		block, err := fe.checkFetched(fe.newBlockBuf(), t, m.curCounter, res.Data, res.Found)
		if err != nil {
			return err
		}
		//oramlint:allow secretflow source: backend access result; sink: first-touch init branch — a block's first-ever access is derivable from the public access sequence; initialization happens in trusted memory
		if !res.Found && fe.mac == nil {
			fe.format.Init(block, fe.rng)
		}

		inserted, victim, evicted := fe.plb.Insert(plb.Entry{
			Tag: t, Leaf: m.newLeaf, Counter: m.newCounter, Block: block,
		})
		fe.ctr.PLBRefills++
		if evicted {
			if err := fe.appendVictim(victim); err != nil {
				return err
			}
		}
		parent = inserted
	}

	// Step 3 (data block access).
	var m mapping
	var err error
	if fe.h == 1 {
		m = fe.mapFromOnChip(a0, a0)
	} else {
		m, err = fe.mapFromParent(parent, a0, ChildIndex(a0, fe.logX), 0)
		if err != nil {
			return err
		}
	}
	return fe.startData(a0, write, data, m)
}

// startData issues the data block's backend access and queues its record
// for Finish. Over a split-phase backend the access joins the in-flight
// window; over any other it runs to completion here.
func (fe *PLBFrontend) startData(a0 uint64, write bool, data []byte, m mapping) error {
	var op *pendingAccess
	if n := len(fe.freePend); n > 0 {
		op, fe.freePend = fe.freePend[n-1], fe.freePend[:n-1]
	} else {
		op = new(pendingAccess)
	}
	*op = pendingAccess{write: write, m: m}

	req := backend.Request{Op: backend.OpRead, Addr: a0, Leaf: m.curLeaf, NewLeaf: m.newLeaf}
	if write {
		fillPadded(fe.writeBuf, data)
		req.Op = backend.OpWrite
		req.Data = fe.seal(a0, m.newCounter, fe.writeBuf)
	} else {
		// Read: verify the fetched block and re-seal it under the new
		// counter inside the same backend access (read-modify-write). The
		// verified payload is copied into a fresh slice: it is the
		// frontend's return value, owned by the caller (the Frontend
		// contract).
		req.Update = func(old []byte, found bool) []byte {
			block, err := fe.checkFetched(nil, a0, m.curCounter, old, found)
			if err != nil {
				op.err = err
				return old
			}
			op.out = block
			return fe.seal(a0, m.newCounter, block)
		}
	}
	if fe.OnBackendAccess != nil {
		fe.OnBackendAccess(req.Op, req.Leaf)
	}
	if fe.split != nil {
		if err := fe.split.Begin(req); err != nil {
			fe.freePend = append(fe.freePend, op)
			return err
		}
	} else {
		//oramlint:allow secretflow source: curLeaf from the data ORAM's position map; sink: backend access request — the per-access leaf reveal is Path ORAM's deliberate disclosure (§3); the flagged witness is the Accounting reference backend's map
		res, err := fe.be.Access(req)
		fe.settle(op, res, err)
	}
	fe.pend = append(fe.pend, op)
	return nil
}

// complete finishes op's backend access, which must be the oldest one in
// flight. After a latched violation the backend has abandoned it (see fail)
// and op fails with the violation itself.
func (fe *PLBFrontend) complete(op *pendingAccess) {
	res, err := fe.split.Complete()
	if fe.violated {
		err = fe.violation
	}
	fe.settle(op, res, err)
}

// settle turns a finished backend access into op's result.
func (fe *PLBFrontend) settle(op *pendingAccess, res backend.Result, err error) {
	op.done = true
	switch {
	case err != nil:
		op.err = err
	case !op.write:
		// The Update callback already verified and copied the block out.
	case fe.mac != nil && !res.Found && op.m.curCounter != 0:
		op.err = fe.fail("core: fetched block absent despite a nonzero access counter")
	default:
		// The overwritten value is returned unverified: it is discarded by
		// the processor, and the write installed a fresh MAC. The copy is
		// deliberate — the Frontend contract returns an owned slice.
		op.out = make([]byte, fe.dataBytes)
		if res.Found {
			old := res.Data
			if fe.mac != nil {
				old = old[fe.macBytes:]
			}
			copy(op.out, old)
		}
	}
	if op.err != nil {
		op.out = nil
	}
}

// Finish returns the result of the oldest started access, completing its
// backend access first if a barrier has not already.
func (fe *PLBFrontend) Finish() ([]byte, error) {
	if len(fe.pend) == 0 {
		return nil, fmt.Errorf("core: Finish without a started access")
	}
	op := fe.pend[0]
	if !op.done {
		fe.complete(op)
	}
	fe.pend = fe.pend[:copy(fe.pend, fe.pend[1:])]
	out, err := op.out, op.err
	*op = pendingAccess{}
	fe.freePend = append(fe.freePend, op)
	return out, err
}

// Drain completes every started access's backend work, oldest first, and
// keeps the results for Finish: the barrier behind synchronous backend
// accesses, snapshots and maintenance.
func (fe *PLBFrontend) Drain() {
	for _, op := range fe.pend {
		if !op.done {
			fe.complete(op)
		}
	}
}

// Ready reports whether Finish would return without waiting on memory.
func (fe *PLBFrontend) Ready() bool {
	return len(fe.pend) > 0 && (fe.pend[0].done || fe.split.Ready())
}

// Wake returns the channel that hints Ready may have turned true, or nil
// when accesses never wait between Start and Finish (the memory is
// synchronous, or the backend is not split-phase): then starting a second
// access before finishing the first gains nothing.
func (fe *PLBFrontend) Wake() <-chan struct{} {
	if fe.split == nil {
		return nil
	}
	return fe.split.Signal()
}

// fillPadded copies src into dst, zero-filling the tail.
func fillPadded(dst, src []byte) {
	n := copy(dst, src)
	clear(dst[n:])
}

// appendVictim returns an evicted PLB block to the ORAM stash (§4.2.4 step
// 2: "append that block to the stash") and recycles the victim's buffer for
// the next PLB refill.
func (fe *PLBFrontend) appendVictim(v plb.Entry) error {
	//oramlint:allow secretflow source: evicted PLB entry's leaf; sink: backend append request — the eviction appends to the stash under the leaf the entry already revealed when fetched (§4.2.4); the flagged witness is the Accounting reference backend's map
	_, err := fe.access(backend.Request{
		Op: backend.OpAppend, Addr: v.Tag, Leaf: v.Leaf,
		Data: fe.seal(v.Tag, v.Counter, v.Block), PosMap: true,
	})
	if err == nil {
		fe.ctr.PLBEvicts++
		fe.recycleBlockBuf(v.Block)
	}
	return err
}

// groupRemap implements §5.2.2: when a child's individual counter rolls
// over, every block in the parent's group is moved to the incremented group
// counter. Children resident in the PLB are updated in place (they are
// outside the tree); all others are read and rewritten through the Backend,
// which is exactly the X unified-tree accesses the paper counts.
func (fe *PLBFrontend) groupRemap(parent *plb.Entry, childLevel int) error {
	cf, ok := fe.format.(*posmap.CompressedFormat)
	if !ok {
		return fmt.Errorf("core: group remap requires the compressed format")
	}
	fe.ctr.GroupRemap++

	x := fe.format.X()
	base := TagAddr(parent.Tag) << fe.logX
	bound := fe.blocksAtLevel(childLevel)

	type childState struct {
		tag     uint64
		leaf    uint64
		counter uint64
		live    bool
	}
	olds := make([]childState, x)
	for k := 0; k < x; k++ {
		addr := base + uint64(k)
		if addr >= bound {
			continue
		}
		t := Tag(childLevel, addr)
		olds[k] = childState{
			tag:     t,
			leaf:    cf.ChildLeaf(parent.Block, t, k),
			counter: cf.ChildCounter(parent.Block, k),
			live:    true,
		}
	}

	cf.BumpGroup(parent.Block)

	for k := 0; k < x; k++ {
		if !olds[k].live {
			continue
		}
		t := olds[k].tag
		newLeaf := cf.ChildLeaf(parent.Block, t, k)
		newCounter := cf.ChildCounter(parent.Block, k)

		// A PosMap-block child sitting in the PLB is outside the tree: its
		// recorded position just moves with the group, no access needed.
		if childLevel >= 1 && fe.plb != nil {
			if e := fe.plb.Contains(t); e != nil {
				e.Leaf = newLeaf
				e.Counter = newCounter
				continue
			}
		}

		var vErr error
		old := olds[k]
		//oramlint:allow secretflow source: child leaves recorded before the group remap; sink: backend access request — a group remap re-fetches every child under its already-revealed leaf and reassigns fresh ones (§5.2.2); the flagged witness is the Accounting reference backend's map
		_, err := fe.access(backend.Request{
			Op: backend.OpRead, Addr: t, Leaf: old.leaf, NewLeaf: newLeaf,
			PosMap: childLevel >= 1,
			Update: func(payload []byte, found bool) []byte {
				// Group remaps are rare (counter rollover), so this path
				// does not bother with buffer recycling.
				block, err := fe.checkFetched(nil, t, old.counter, payload, found)
				if err != nil {
					vErr = err
					return payload
				}
				return fe.seal(t, newCounter, block)
			},
		})
		if err != nil {
			return err
		}
		if vErr != nil {
			return vErr
		}
	}
	return nil
}

var _ Frontend = (*PLBFrontend)(nil)
