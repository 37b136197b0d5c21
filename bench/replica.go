package main

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"path/filepath"

	"freecursive/internal/backend"
	"freecursive/internal/backend/bhoram"
	"freecursive/internal/core"
	"freecursive/internal/crypt"
	"freecursive/internal/mem"
	"freecursive/internal/posmap"
	"freecursive/internal/stats"
	"freecursive/internal/store"
	"freecursive/internal/tree"
)

// replica is a hand-assembled single-shard copy of what core.Build makes
// for a PIC ORAM — core.NewPLB over a backend over a mem.Backend — with a
// timing decorator between each pair of layers, which core.Build has no
// way to accept. TestReplicaParity holds it to freecursive.New's counters.
type replica struct {
	fe   *core.PLBFrontend
	be   *timedBackend
	mem  *timedMem
	ctr  *stats.Counters
	n    uint64   // blocks
	ver  []uint32 // shadow: version of the last write per address
	data [blockBytes]byte
}

// Defaults core.Params.setDefaults applies and freecursive.New inherits.
const (
	defaultZ           = 4
	defaultStashCap    = 200
	defaultBetaBits    = 14
	defaultOnChipBytes = 128 << 10
	defaultPLBBytes    = 64 << 10
)

// deriveKey mirrors core's key derivation so the replica seals and MACs
// exactly as a built system with the same seed does.
func deriveKey(seed uint64, purpose byte) []byte {
	k := make([]byte, 16)
	binary.BigEndian.PutUint64(k, seed)
	k[8] = purpose
	k[9] = ^purpose
	k[15] = 0x5a
	return k
}

func orDefault(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

// openMem opens the untrusted memory a shard of w uses: a bucketd namespace
// when remote, a page file when durable, a map otherwise.
func (w *workload) openMem(g tree.Geometry, dir, memAddr string) (mem.Backend, error) {
	switch {
	case memAddr != "":
		return mem.DialRemote(mem.RemoteConfig{Addr: memAddr, Namespace: "replica/tree-0"})
	case dir != "":
		slot, buckets := backend.SealedBucketBytes(g), uint64(0)
		if w.backend == core.BackendBucketHash {
			slot, buckets = bhoram.SealedBucketBytes(g), bhoram.NumBuckets(g, defaultStashCap)
		}
		return mem.OpenFile(mem.FileConfig{Path: filepath.Join(dir, "replica-tree-0.oram"), Geometry: g, SlotBytes: slot, Buckets: buckets})
	}
	return mem.NewStore(), nil
}

// newReplica builds one shard's stack for w with n blocks, recording spans
// to tr. dir and memAddr place its untrusted memory like the real stack's.
func newReplica(w *workload, n uint64, seed uint64, tr *tracer, dir, memAddr string) (*replica, error) {
	x := posmap.CompressedXFor(blockBytes, defaultBetaBits)
	logX := uint(bits.TrailingZeros(uint(x)))
	ctr := &stats.Counters{}
	rng := rand.New(rand.NewPCG(seed, 0x0ca7))
	levels := tree.LevelsForCapacity(n, defaultZ) + 1 // unified tree: PosMap blocks add a level

	prf, err := crypt.NewPRF(deriveKey(seed, 'P'))
	if err != nil {
		return nil, err
	}
	mac, err := crypt.NewMAC(deriveKey(seed, 'M'), crypt.DefaultTagBytes)
	if err != nil {
		return nil, err
	}
	ciph, err := crypt.NewBucketCipher(deriveKey(seed, 'E'), crypt.SeedGlobal)
	if err != nil {
		return nil, err
	}
	g, err := tree.NewGeometry(levels, defaultZ, blockBytes+mac.TagBytes())
	if err != nil {
		return nil, err
	}
	raw, err := w.openMem(g, dir, memAddr)
	if err != nil {
		return nil, err
	}
	store, tm, err := newTimedMem(raw, tr)
	if err != nil {
		raw.Close()
		return nil, err
	}
	var be backend.Backend
	if w.backend == core.BackendBucketHash {
		hash, herr := crypt.NewPRF(deriveKey(seed, 'H'))
		if herr != nil {
			raw.Close()
			return nil, herr
		}
		be, err = bhoram.New(bhoram.Config{Geometry: g, Store: store, Cipher: ciph, Hash: hash, CacheCapacity: defaultStashCap, Counters: ctr})
	} else {
		be, err = backend.NewPathORAM(backend.Config{Geometry: g, Store: store, Cipher: ciph, StashCapacity: defaultStashCap, Counters: ctr})
	}
	if err != nil {
		raw.Close()
		return nil, err
	}
	tb := &timedBackend{Backend: be, tr: tr}
	format, err := posmap.NewCompressedFormat(x, defaultBetaBits, prf, levels)
	if err != nil {
		raw.Close()
		return nil, err
	}
	fe, err := core.NewPLB(core.PLBConfig{
		Backend:          tb,
		NBlocks:          n,
		DataBytes:        blockBytes,
		Format:           format,
		LogX:             logX,
		MaxOnChipEntries: uint64(orDefault(w.onChipBytes, defaultOnChipBytes)) * 8 / 64, // counter mode: 64 bits per entry
		PLBCapacityBytes: orDefault(w.plbBytes, defaultPLBBytes),
		PLBWays:          1,
		MAC:              mac,
		Rand:             rng,
		PRF:              prf,
		Counters:         ctr,
	})
	if err != nil {
		raw.Close()
		return nil, err
	}
	return &replica{fe: fe, be: tb, mem: tm, ctr: ctr, n: n, ver: make([]uint32, n)}, nil
}

func (r *replica) close() error { return r.be.Close() }

// do runs one op under a core.access span, then one idle maintenance
// quantum, and reports whether it succeeded (no error, read as expected).
func (r *replica) do(o op) bool {
	var data []byte
	want := r.ver[o.addr]
	if o.write {
		r.ver[o.addr]++
		payload(r.data[:], o.addr, r.ver[o.addr])
		data = r.data[:]
	}
	r.be.tr.push("core.access")
	got, err := r.fe.Access(o.addr, o.write, data)
	r.be.tr.pop()
	if err != nil || r.be.maintain() != nil {
		return false
	}
	return holds(got, o.addr, want)
}

// shardShare returns n ops of the workload's streams that the store sends
// to shard 0, renumbered for the replica's single ORAM: the k-th address of
// the shard becomes in-shard address k*scatter mod the shard size, so, as in
// the store, hot addresses do not end up side by side in one PosMap block.
func shardShare(st *store.Store, w *workload, cs []*clientState, n int) []op {
	perShard := w.blocks / uint64(w.shards)
	local := make([]uint64, w.blocks)
	k := uint64(0)
	for a := range local {
		if st.ShardOf(uint64(a)) == 0 {
			local[a] = k * scatter & (perShard - 1)
			k++
		}
	}
	out := make([]op, 0, n)
	for len(out) < n {
		for _, c := range cs {
			if o := c.gen.next(); st.ShardOf(o.addr) == 0 {
				out = append(out, op{addr: local[o.addr], write: o.write})
			}
		}
	}
	return out[:n]
}

// prefill writes the first n in-shard addresses once, untraced by the caller.
func (r *replica) prefill(n uint64) error {
	for a := uint64(0); a < n; a++ {
		if !r.do(op{addr: a, write: true}) {
			return fmt.Errorf("replica prefill failed at %d", a)
		}
	}
	return nil
}
