package core

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"os"
	"path/filepath"

	"freecursive/internal/backend"
	"freecursive/internal/backend/bhoram"
	"freecursive/internal/crypt"
	"freecursive/internal/mem"
	"freecursive/internal/posmap"
	"freecursive/internal/stats"
	"freecursive/internal/tree"
)

// Backend kinds selectable via Params.Backend. Both satisfy the same
// backend.Backend contract and serve the same frontends; they differ in
// construction (tree + stash vs hash levels + deamortized rebuilds) and
// therefore in their access-pattern shape and maintenance profile.
const (
	// BackendPath is the paper's Path ORAM tree backend (default).
	BackendPath = "path"
	// BackendBucketHash is the Pyramid-style bucket-hash hierarchy with
	// deamortized background rebuilds (internal/backend/bhoram). Requires
	// the functional mode and the global-seed encryption scheme.
	BackendBucketHash = "bhoram"
)

// BackendKinds lists the valid Params.Backend values.
func BackendKinds() []string { return []string{BackendPath, BackendBucketHash} }

// Params selects and sizes a complete ORAM configuration by paper scheme
// name. Zero values take the Table 1 defaults.
type Params struct {
	Scheme     Scheme
	Backend    string // position-based ORAM construction (default BackendPath)
	NBlocks    uint64 // data blocks N (default 1<<20 for simulations)
	DataBytes  int    // block size B (default 64)
	Z          int    // slots per bucket (default 4)
	Levels     int    // data-tree leaf level L override (0: log2(N/Z))
	StashCap   int    // stash capacity (default 200)
	BetaBits   int    // compressed individual counter width (default 14)
	PosMapBlkB int    // recursive baseline PosMap ORAM block size (default 32)

	// OnChipBudgetBytes bounds the on-chip PosMap; recursion depth is the
	// smallest honoring it (default 128 KB as in §7.1.4). HOverride wins.
	OnChipBudgetBytes int
	HOverride         int

	PLBCapacityBytes int // default 64 KB (§7.1.3)
	PLBWays          int // default 1 (direct-mapped)

	// TreetopBytes budgets each Path ORAM tree's treetop cache: the whole
	// levels from the root whose plaintext buckets fit are kept in trusted
	// memory (0: 64 KB, the PLB's default; negative: none). Ignored by the
	// bucket-hash backend. A resumed snapshot keeps the depth it was taken
	// with, whatever this says. freecursive.Config has no such option and
	// always builds with 0: internal/exp switches the cache off, tests pick
	// a depth.
	TreetopBytes int

	// Functional selects real trees + encryption (true) or the
	// bandwidth-accounting backend (false).
	Functional bool
	EncScheme  crypt.SeedScheme // bucket encryption (functional mode)
	Seed       uint64           // deterministic seed for keys and RNG

	// DataDir, if non-empty, backs every tree with a file-based bucket
	// store (tree-<i>.oram under the directory, created if needed) so
	// sealed buckets survive process restarts. Requires Functional.
	DataDir string
	// MemAddr, if non-empty, backs every tree with a remote bucketd server
	// at this TCP address instead of in-process memory: the paper's
	// untrusted memory as a separate failure domain. Requires Functional
	// and MemNamespace; mutually exclusive with DataDir. Tree i lives in
	// bucketd namespace "<MemNamespace>/tree-<i>".
	MemAddr string
	// MemNamespace isolates this system's buckets on a shared bucketd. It
	// has no default: the server is the adversary, so the name must carry
	// nothing derived from Seed. Two live systems MUST NOT share one.
	MemNamespace string
}

func (p *Params) setDefaults() {
	if p.Backend == "" {
		p.Backend = BackendPath
	}
	if p.NBlocks == 0 {
		p.NBlocks = 1 << 20
	}
	if p.DataBytes == 0 {
		p.DataBytes = 64
	}
	if p.Z == 0 {
		p.Z = 4
	}
	if p.StashCap == 0 {
		p.StashCap = 200
	}
	if p.BetaBits == 0 {
		p.BetaBits = 14
	}
	if p.PosMapBlkB == 0 {
		p.PosMapBlkB = 32
	}
	if p.OnChipBudgetBytes == 0 {
		p.OnChipBudgetBytes = 128 << 10
	}
	if p.PLBCapacityBytes == 0 {
		p.PLBCapacityBytes = 64 << 10
	}
	if p.PLBWays == 0 {
		p.PLBWays = 1
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// X returns the PosMap fan-out the scheme achieves with these parameters
// (§5.3: compression raises X from B/4 or B/8 to (8B-64)/beta).
func (p Params) X() (int, error) {
	q := p
	q.setDefaults()
	var x int
	switch q.Scheme {
	case SchemeRecursive:
		x = posmap.UncompressedXFor(q.PosMapBlkB)
	case SchemeP:
		x = posmap.UncompressedXFor(q.DataBytes)
	case SchemePI:
		x = posmap.FlatXFor(q.DataBytes)
	case SchemePC, SchemePIC:
		x = posmap.CompressedXFor(q.DataBytes, q.BetaBits)
	default:
		return 0, fmt.Errorf("core: unknown scheme %v", q.Scheme)
	}
	if x < 2 || x&(x-1) != 0 {
		return 0, fmt.Errorf("core: scheme %v yields X=%d (need power of two >= 2)", q.Scheme, x)
	}
	return x, nil
}

// Name returns the paper-style scheme name, e.g. "PC_X32".
func (p Params) Name() string {
	x, err := p.X()
	if err != nil {
		return p.Scheme.String() + "_X?"
	}
	return fmt.Sprintf("%s_X%d", p.Scheme, x)
}

func deriveKey(seed uint64, purpose byte) []byte {
	k := make([]byte, 16)
	binary.BigEndian.PutUint64(k, seed)
	k[8] = purpose
	k[9] = ^purpose
	k[15] = 0x5a
	return k
}

// System bundles a built frontend with its shared pieces so experiments can
// inspect them.
type System struct {
	Frontend Frontend
	Counters *stats.Counters
	Params   Params
	XVal     int
	H        int
	// Backends holds the backend(s): one for PLB schemes, H for recursive.
	Backends []backend.Backend
	// OnChipBits is the on-chip PosMap size.
	OnChipBits uint64
	// PCG is the seeded randomness source driving leaf remapping; exposed
	// so Snapshot can persist and Restore can resume the stream.
	PCG *rand.PCG
}

// Maintain runs up to budget units of pending backend maintenance
// (deamortized rebuild work; budget <= 0 means one inline quantum per
// backend) and reports whether any backend still has work queued.
// Backends without a maintenance capability are skipped.
func (s *System) Maintain(budget int) (bool, error) {
	s.drain()
	pending := false
	for _, be := range s.Backends {
		m, ok := be.(backend.Maintainer)
		if !ok {
			continue
		}
		p, err := m.Maintain(budget)
		if p {
			pending = true
		}
		if err != nil {
			return pending, err
		}
	}
	return pending, nil
}

// drain completes the backend work of every access the frontend has started
// and not finished, so that what follows sees no access half done.
func (s *System) drain() {
	if fe, ok := s.Frontend.(interface{ Drain() }); ok {
		fe.Drain()
	}
}

// MaintainPending reports whether any backend has maintenance work queued.
func (s *System) MaintainPending() bool {
	for _, be := range s.Backends {
		if m, ok := be.(backend.Maintainer); ok && m.MaintainPending() {
			return true
		}
	}
	return false
}

// Close releases the untrusted storage behind every tree (bucket page
// files, in particular). The system must not be used afterwards.
func (s *System) Close() error {
	var first error
	for _, be := range s.Backends {
		if err := be.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// newMemFactory returns the constructor for per-tree untrusted memory:
// tree i gets DataDir/tree-<i>.oram when durable, a bucketd namespace
// "<ns>/tree-<i>" when remote, an in-process map otherwise. It is the one
// place the choice of memory is checked.
func newMemFactory(p Params) (func(g tree.Geometry) (mem.Backend, error), error) {
	if !p.Functional && (p.DataDir != "" || p.MemAddr != "") {
		return nil, fmt.Errorf("core: durable or remote untrusted memory requires the functional backend")
	}
	if p.DataDir != "" && p.MemAddr != "" {
		return nil, fmt.Errorf("core: durable (DataDir) and remote (MemAddr) untrusted memory are mutually exclusive")
	}
	if p.MemAddr != "" && p.MemNamespace == "" {
		return nil, fmt.Errorf("core: remote (MemAddr) untrusted memory requires a MemNamespace")
	}
	if p.MemNamespace != "" && p.MemAddr == "" {
		return nil, fmt.Errorf("core: MemNamespace %q names a bucketd namespace, but MemAddr is empty", p.MemNamespace)
	}
	if p.DataDir != "" {
		if err := os.MkdirAll(p.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	treeIdx := 0
	return func(g tree.Geometry) (mem.Backend, error) {
		var m mem.Backend = mem.NewStore()
		switch {
		case p.DataDir != "":
			// The page file's slot size and bucket count depend on the
			// backend construction living in it: the tree backend uses
			// 2^(L+1)-1 buckets of 17-byte-headed slots, the bucket-hash
			// backend a flat level layout of 25-byte-headed slots.
			slot := backend.SealedBucketBytes(g)
			buckets := uint64(0) // 0: the geometry's tree bucket count
			if p.Backend == BackendBucketHash {
				slot = bhoram.SealedBucketBytes(g)
				buckets = bhoram.NumBuckets(g, p.StashCap)
			}
			fs, err := mem.OpenFile(mem.FileConfig{
				Path:      filepath.Join(p.DataDir, fmt.Sprintf("tree-%d.oram", treeIdx)),
				Geometry:  g,
				SlotBytes: slot,
				Buckets:   buckets,
			})
			if err != nil {
				return nil, err
			}
			m = fs
		case p.MemAddr != "":
			r, err := mem.DialRemote(mem.RemoteConfig{
				Addr:      p.MemAddr,
				Namespace: fmt.Sprintf("%s/tree-%d", p.MemNamespace, treeIdx),
			})
			if err != nil {
				return nil, err
			}
			m = r
		}
		treeIdx++
		return m, nil
	}, nil
}

// Build constructs a complete ORAM system for the given parameters.
func Build(p Params) (*System, error) {
	p.setDefaults()
	x, err := p.X()
	if err != nil {
		return nil, err
	}
	logX := uint(bits.TrailingZeros(uint(x)))
	ctr := &stats.Counters{}
	src := rand.NewPCG(p.Seed, 0x0ca7)
	rng := rand.New(src)

	dataLevels := p.Levels
	if dataLevels == 0 {
		dataLevels = tree.LevelsForCapacity(p.NBlocks, p.Z)
	}

	prf, err := crypt.NewPRF(deriveKey(p.Seed, 'P'))
	if err != nil {
		return nil, err
	}
	newMem, err := newMemFactory(p)
	if err != nil {
		return nil, err
	}

	if p.Backend != BackendPath && p.Backend != BackendBucketHash {
		return nil, fmt.Errorf("core: unknown backend kind %q (want %q or %q)",
			p.Backend, BackendPath, BackendBucketHash)
	}
	if p.Backend == BackendBucketHash && !p.Functional {
		return nil, fmt.Errorf("core: the bucket-hash backend has no accounting mode; it requires Functional")
	}

	newBackend := func(g tree.Geometry) (backend.Backend, error) {
		if !p.Functional {
			return backend.NewAccounting(g, ctr)
		}
		ciph, err := crypt.NewBucketCipher(deriveKey(p.Seed, 'E'), p.EncScheme)
		if err != nil {
			return nil, err
		}
		// Durable trees can hold ciphertexts from earlier runs under the
		// same derived key. Restarting the global seed register at 1 (e.g.
		// after a crash that lost the snapshot) would then replay the
		// AES-CTR seed stream — the §6.4 one-time-pad reuse, self-inflicted.
		// Start the register at a random 47-bit value instead: a resumed
		// snapshot overwrites it, and a fresh-over-old-buckets start can
		// no longer collide with a previous run's seed window.
		if p.DataDir != "" && p.EncScheme == crypt.SeedGlobal {
			var b [8]byte
			if _, err := cryptorand.Read(b[:]); err != nil {
				return nil, fmt.Errorf("core: seeding cipher register: %w", err)
			}
			ciph.SetGlobalSeed(binary.BigEndian.Uint64(b[:]) & (1<<47 - 1))
		}
		m, err := newMem(g)
		if err != nil {
			return nil, err
		}
		if p.Backend == BackendBucketHash {
			// The bucket-choice PRF gets its own derived key ('H'): bucket
			// placement must not be predictable from the leaf-label PRF.
			hash, err := crypt.NewPRF(deriveKey(p.Seed, 'H'))
			if err != nil {
				return nil, err
			}
			return bhoram.New(bhoram.Config{
				Geometry:      g,
				Store:         m,
				Cipher:        ciph,
				Hash:          hash,
				CacheCapacity: p.StashCap,
				Counters:      ctr,
			})
		}
		return backend.NewPathORAM(backend.Config{
			Geometry:      g,
			Store:         m,
			Cipher:        ciph,
			StashCapacity: p.StashCap,
			TreetopBytes:  p.TreetopBytes,
			Counters:      ctr,
		})
	}

	var sys *System
	if p.Scheme == SchemeRecursive {
		sys, err = buildRecursive(p, x, logX, dataLevels, ctr, rng, newBackend)
	} else {
		sys, err = buildPLB(p, x, logX, dataLevels, ctr, rng, prf, newBackend)
	}
	if err != nil {
		return nil, err
	}
	sys.PCG = src
	return sys, nil
}

func buildRecursive(p Params, x int, logX uint, dataLevels int,
	ctr *stats.Counters, rng *rand.Rand,
	newBackend func(tree.Geometry) (backend.Backend, error)) (*System, error) {

	// Depth: grow until the on-chip PosMap (L bits per entry) fits the
	// budget, or use the explicit override.
	h := p.HOverride
	if h == 0 {
		for h = 1; ; h++ {
			entries := TopEntries(p.NBlocks, logX, h)
			nTop := entries
			lTop := dataLevels
			if h > 1 {
				lTop = tree.LevelsForCapacity(nTop, p.Z)
			}
			if entries*uint64(lTop) <= uint64(p.OnChipBudgetBytes)*8 {
				break
			}
		}
	}

	backends := make([]backend.Backend, h)
	for i := 0; i < h; i++ {
		var g tree.Geometry
		var err error
		if i == 0 {
			g, err = tree.NewGeometry(dataLevels, p.Z, p.DataBytes)
		} else {
			ni := TopEntries(p.NBlocks, logX, i+1)
			g, err = tree.NewGeometry(tree.LevelsForCapacity(ni, p.Z), p.Z, p.PosMapBlkB)
		}
		if err != nil {
			return nil, err
		}
		if backends[i], err = newBackend(g); err != nil {
			return nil, err
		}
	}

	fe, err := NewRecursive(RecursiveConfig{
		Backends: backends,
		LogX:     logX,
		NBlocks:  p.NBlocks,
		Rand:     rng,
		Counters: ctr,
	})
	if err != nil {
		return nil, err
	}
	return &System{
		Frontend:   fe,
		Counters:   ctr,
		Params:     p,
		XVal:       x,
		H:          h,
		Backends:   backends,
		OnChipBits: fe.OnChipBits(),
	}, nil
}

func buildPLB(p Params, x int, logX uint, dataLevels int,
	ctr *stats.Counters, rng *rand.Rand, prf *crypt.PRF,
	newBackend func(tree.Geometry) (backend.Backend, error)) (*System, error) {

	// Unified tree: PosMap blocks add at most one level (§4.2.1).
	unifiedLevels := dataLevels + 1

	var mac *crypt.MAC
	macBytes := 0
	if p.Scheme.Integrity() {
		var err error
		mac, err = crypt.NewMAC(deriveKey(p.Seed, 'M'), crypt.DefaultTagBytes)
		if err != nil {
			return nil, err
		}
		macBytes = mac.TagBytes()
	}

	g, err := tree.NewGeometry(unifiedLevels, p.Z, p.DataBytes+macBytes)
	if err != nil {
		return nil, err
	}
	be, err := newBackend(g)
	if err != nil {
		return nil, err
	}

	var format posmap.Format
	switch p.Scheme {
	case SchemeP:
		format, err = posmap.NewUncompressedFormat(x, unifiedLevels)
	case SchemePI:
		format, err = posmap.NewFlatCounters(x, prf, unifiedLevels)
	case SchemePC, SchemePIC:
		format, err = posmap.NewCompressedFormat(x, p.BetaBits, prf, unifiedLevels)
	default:
		err = fmt.Errorf("core: scheme %v is not PLB-based", p.Scheme)
	}
	if err != nil {
		return nil, err
	}

	// On-chip budget in entries: L bits per entry in leaf mode, 64 bits in
	// counter mode (§6.2.2).
	entryBits := uint64(unifiedLevels)
	if p.Scheme.Integrity() {
		entryBits = 64
	}
	maxEntries := uint64(p.OnChipBudgetBytes) * 8 / entryBits
	if maxEntries == 0 {
		maxEntries = 1
	}

	fe, err := NewPLB(PLBConfig{
		Backend:          be,
		NBlocks:          p.NBlocks,
		DataBytes:        p.DataBytes,
		Format:           format,
		LogX:             logX,
		MaxOnChipEntries: maxEntries,
		H:                p.HOverride,
		PLBCapacityBytes: p.PLBCapacityBytes,
		PLBWays:          p.PLBWays,
		MAC:              mac,
		Rand:             rng,
		PRF:              prf,
		Counters:         ctr,
	})
	if err != nil {
		return nil, err
	}
	return &System{
		Frontend:   fe,
		Counters:   ctr,
		Params:     p,
		XVal:       x,
		H:          fe.H(),
		Backends:   []backend.Backend{be},
		OnChipBits: fe.OnChipBits(),
	}, nil
}
