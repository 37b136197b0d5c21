package main

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand/v2"
)

const blockBytes = 64

// scatter is an odd multiplier: k*scatter mod a power of two is a bijection
// that spreads consecutive k apart.
const scatter = 0x9E3779B97F4A7C15

// op is one generated logical operation. Ops are the only thing the
// program under test receives from the benchmark.
type op struct {
	addr  uint64
	write bool
}

// opGen is one client's deterministic op stream. Client c of n owns the
// residue class {a : a mod n == c}, so no two clients ever touch the same
// block and each can check every read exactly against its own shadow.
type opGen struct {
	rng       *rand.Rand
	zipf      *rand.Zipf // nil: uniform
	client    uint64
	clients   uint64
	owned     uint64 // addresses in this client's class (power of two)
	writeFrac float64
}

// splitmix64 is the SplitMix64 finalizer, used to derive independent
// streams and payload words from small integers.
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func nameHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func newOpGen(seed uint64, w *workload, client int) *opGen {
	g := &opGen{
		rng:       rand.New(rand.NewPCG(splitmix64(seed), splitmix64(nameHash(w.name)+uint64(client)))),
		client:    uint64(client),
		clients:   uint64(w.clients),
		owned:     w.blocks / uint64(w.clients),
		writeFrac: w.writeFrac,
	}
	if w.zipfS > 0 {
		g.zipf = rand.NewZipf(g.rng, w.zipfS, 1, g.owned-1)
	}
	return g
}

func (g *opGen) next() op {
	var i uint64
	if g.zipf != nil {
		// Scatter the ranks over the class so the hot set is not one run of
		// addresses.
		i = g.zipf.Uint64() * scatter & (g.owned - 1)
	} else {
		i = g.rng.Uint64N(g.owned)
	}
	return op{addr: i*g.clients + g.client, write: g.rng.Float64() < g.writeFrac}
}

func (g *opGen) fill(dst []op) {
	for i := range dst {
		dst[i] = g.next()
	}
}

// payload fills dst with the block contents of the ver-th write to addr.
// Version 0 is the never-written block: all zeros.
func payload(dst []byte, addr uint64, ver uint32) {
	if ver == 0 {
		clear(dst)
		return
	}
	x := addr<<32 | uint64(ver)
	for i := 0; i+8 <= len(dst); i += 8 {
		x = splitmix64(x)
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
}

// shadow is one client's model of its residue class: the version of the
// last write it issued to each owned address. Writes are recorded when
// issued, in issue order, which is also the order the store applies them
// (one client, ops of a batch execute in slice order per shard); a write
// that then fails is a failed op and fails the whole run anyway.
type shadow struct {
	clients uint64
	ver     []uint32
}

func newShadow(w *workload) *shadow {
	return &shadow{clients: uint64(w.clients), ver: make([]uint32, w.blocks/uint64(w.clients))}
}

// write records a new write to addr and fills dst with its payload.
func (s *shadow) write(addr uint64, dst []byte) {
	i := addr / s.clients
	s.ver[i]++
	payload(dst, addr, s.ver[i])
}

// version returns the version a read of addr issued now must observe.
func (s *shadow) version(addr uint64) uint32 { return s.ver[addr/s.clients] }

// holds reports whether got is exactly version ver of addr. It keeps no
// state, so concurrent readers may call it.
func holds(got []byte, addr uint64, ver uint32) bool {
	var want [blockBytes]byte
	payload(want[:], addr, ver)
	return bytes.Equal(got, want[:])
}
