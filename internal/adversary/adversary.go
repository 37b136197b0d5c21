// Package adversary packages the active-adversary strategies of the threat
// model (§2) as reusable operations against any mem.Backend: bit flips,
// replay of recorded ciphertexts, deletion, and encryption-seed rewinding
// (the §6.4 attack). Tests and examples compose these to validate that
// PMMAC catches what it must and that the encryption schemes resist what
// they claim to — whether the sealed buckets live in a map or on disk.
//
// The attacks at rest go through the memory's own Read and Write (a
// deletion is a Write of nil), so they are counted like any access; the
// ones in flight hook a memtest.Mem decorator.
package adversary

import (
	"bytes"
	"math/rand/v2"
	"sync"

	"freecursive/internal/crypt"
	"freecursive/internal/mem"
	"freecursive/internal/mem/memtest"
)

// IndexTrace records the sequence of bucket indices untrusted memory is
// asked to touch — the adversary's wiretap. It serves two vantage points:
// Note can be wired to a memtest.Mem's Trace in-process (the bus probe) or
// to a bucketd server's Trace callback (the network tap). It is safe for
// concurrent use; bucketd invokes Trace from connection goroutines.
//
// The obliviousness argument (§2) is exactly that this trace is
// distributed independently of the access pattern; tests also use it to
// pin protocol equivalences, e.g. that a batched path request touches the
// same bucket multiset as the serial loop it replaced.
type IndexTrace struct {
	mu   sync.Mutex
	idxs []uint64
}

// Note records one touched bucket index.
func (t *IndexTrace) Note(idx uint64) {
	t.mu.Lock()
	t.idxs = append(t.idxs, idx)
	t.mu.Unlock()
}

// Indices returns a copy of the recorded sequence.
func (t *IndexTrace) Indices() []uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]uint64, len(t.idxs))
	copy(out, t.idxs)
	return out
}

// Multiset returns how many times each index was touched.
func (t *IndexTrace) Multiset() map[uint64]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := make(map[uint64]int, len(t.idxs))
	for _, idx := range t.idxs {
		m[idx]++
	}
	return m
}

// Reset clears the trace.
func (t *IndexTrace) Reset() {
	t.mu.Lock()
	t.idxs = t.idxs[:0]
	t.mu.Unlock()
}

// Inspect returns a mutable copy of bucket idx as it lies in st at rest:
// nil if it is absent or cannot be read. Write a changed copy back to
// tamper with it.
func Inspect(st mem.Backend, idx uint64) []byte {
	raw, err := st.Read(idx)
	if err != nil {
		return nil
	}
	return bytes.Clone(raw)
}

// BitFlipper corrupts stored buckets in place.
type BitFlipper struct {
	// Mask is XORed into the chosen byte (default 0x01).
	Mask byte
	// Offset selects the byte to flip, as a fraction of the bucket length
	// in [0,1); e.g. 0 targets the seed field, 0.9 the ciphertext body.
	Offset float64
}

// FlipAll corrupts every materialized bucket in [0, nBuckets) and returns
// how many were touched.
func (f BitFlipper) FlipAll(st mem.Backend, nBuckets uint64) int {
	mask := f.Mask
	if mask == 0 {
		mask = 0x01
	}
	n := 0
	for idx := uint64(0); idx < nBuckets; idx++ {
		raw := Inspect(st, idx)
		if raw == nil {
			continue
		}
		pos := int(f.Offset * float64(len(raw)))
		if pos >= len(raw) {
			pos = len(raw) - 1
		}
		raw[pos] ^= mask
		if st.Write(idx, raw) == nil {
			n++
		}
	}
	return n
}

// FlipOne corrupts a single random materialized bucket; returns the index
// and whether one was found and corrupted.
func (f BitFlipper) FlipOne(st mem.Backend, nBuckets uint64, rng *rand.Rand) (uint64, bool) {
	var candidates []uint64
	for idx := uint64(0); idx < nBuckets; idx++ {
		if Inspect(st, idx) != nil {
			candidates = append(candidates, idx)
		}
	}
	if len(candidates) == 0 {
		return 0, false
	}
	idx := candidates[rng.IntN(len(candidates))]
	raw := Inspect(st, idx)
	pos := int(f.Offset * float64(len(raw)))
	if pos >= len(raw) {
		pos = len(raw) - 1
	}
	mask := f.Mask
	if mask == 0 {
		mask = 0x01
	}
	raw[pos] ^= mask
	return idx, st.Write(idx, raw) == nil
}

// Recorder snapshots DRAM for later replay — the freshness attack of §6.1.
type Recorder struct {
	snapshot map[uint64][]byte
	n        uint64
}

// Record captures the current contents of every materialized bucket.
func (r *Recorder) Record(st mem.Backend, nBuckets uint64) int {
	r.snapshot = make(map[uint64][]byte)
	r.n = nBuckets
	for idx := uint64(0); idx < nBuckets; idx++ {
		if raw := Inspect(st, idx); raw != nil {
			r.snapshot[idx] = bytes.Clone(raw)
		}
	}
	return len(r.snapshot)
}

// Replay rolls the whole recorded range back to its snapshot — recorded
// buckets to their old contents, buckets materialized since back to
// nothing (a rollback restores the disk image, not just the sectors that
// happened to change; against a double-buffered layout restoring only old
// sectors would leave the newest epoch intact). Each individual (MAC,
// data) pair is genuine — only counters can catch this. It returns how many
// recorded buckets it put back.
func (r *Recorder) Replay(st mem.Backend) int {
	n := 0
	for idx := uint64(0); idx < r.n; idx++ {
		if raw, ok := r.snapshot[idx]; st.Write(idx, raw) == nil && ok {
			n++
		}
	}
	return n
}

// Deleter erases buckets — blocks silently vanish.
type Deleter struct{}

// DeleteAll removes every materialized bucket.
func (Deleter) DeleteAll(st mem.Backend, nBuckets uint64) int {
	n := 0
	for idx := uint64(0); idx < nBuckets; idx++ {
		if Inspect(st, idx) != nil && st.Write(idx, nil) == nil {
			n++
		}
	}
	return n
}

// Garbler overwrites stored buckets with garbage: every byte XORed with
// 0x5a, so seed, MAC and body are all wrong at once.
type Garbler struct{}

// GarbleAll garbles every materialized bucket in [0, nBuckets) and returns
// how many it touched.
func (Garbler) GarbleAll(st mem.Backend, nBuckets uint64) int {
	n := 0
	for idx := uint64(0); idx < nBuckets; idx++ {
		if raw := Inspect(st, idx); raw != nil {
			for j := range raw {
				raw[j] ^= 0x5a
			}
			if st.Write(idx, raw) == nil {
				n++
			}
		}
	}
	return n
}

// SeedRewinder performs the §6.4 seed-replay: it decrements the plaintext
// encryption seed stored with each bucket, so a controller using
// per-bucket seeds will re-derive an already-used one-time pad on its next
// writeback. Against the global-seed scheme this only garbles decryption
// (caught by PMMAC when it matters) and can never cause pad reuse.
type SeedRewinder struct{}

// RewindAll decrements every materialized bucket's stored seed.
func (SeedRewinder) RewindAll(st mem.Backend, nBuckets uint64) int {
	n := 0
	for idx := uint64(0); idx < nBuckets; idx++ {
		raw := Inspect(st, idx)
		if raw == nil || len(raw) < crypt.SeedBytes {
			continue
		}
		seed := uint64(0)
		for i := 0; i < crypt.SeedBytes; i++ {
			seed = seed<<8 | uint64(raw[i])
		}
		if seed == 0 {
			continue
		}
		seed--
		for i := crypt.SeedBytes - 1; i >= 0; i-- {
			raw[i] = byte(seed)
			seed >>= 8
		}
		if st.Write(idx, raw) == nil {
			n++
		}
	}
	return n
}

// PadReuseDetector watches bucket writes and reports when the same
// (bucket, seed) pair is sealed twice with different ciphertexts — the
// observable signature of one-time-pad reuse the §6.4 adversary exploits.
// It also counts Regressions: writes whose seed does not exceed the seed the
// same bucket was last written under. An honest controller's seeds only
// climb, under either scheme; a regression is the step before a reuse.
//
// It watches from either vantage point: in flight (Install, every write on
// the wire) or at rest (Scan, the writes that survive between two looks).
type PadReuseDetector struct {
	seen        map[[2]uint64][]byte // (bucket, seed) -> first ciphertext
	last        map[uint64]uint64    // bucket -> seed of its latest write
	rest        map[uint64][]byte    // bucket -> bytes at the last look
	Reuses      int
	Regressions int
}

// Install hooks the detector into a memory's write path.
func (d *PadReuseDetector) Install(st *memtest.Mem) {
	st.OnWrite = func(idx uint64, data []byte) []byte {
		d.observe(idx, data)
		return data
	}
}

// Scan observes, at rest, every bucket in [0, nBuckets) whose bytes changed
// since the detector last looked — what the controller wrote back in
// between (of a bucket written twice, only the last write).
func (d *PadReuseDetector) Scan(st mem.Backend, nBuckets uint64) { d.look(st, nBuckets, true) }

// Mark looks at the buckets without observing them, so the adversary's own
// edits (a rewind) are not taken for writes of the controller's.
func (d *PadReuseDetector) Mark(st mem.Backend, nBuckets uint64) { d.look(st, nBuckets, false) }

func (d *PadReuseDetector) look(st mem.Backend, nBuckets uint64, observe bool) {
	if d.rest == nil {
		d.rest = make(map[uint64][]byte)
	}
	for idx := uint64(0); idx < nBuckets; idx++ {
		raw := Inspect(st, idx)
		if raw == nil || bytes.Equal(raw, d.rest[idx]) {
			continue
		}
		d.rest[idx] = raw
		if observe {
			d.observe(idx, raw)
		}
	}
}

func (d *PadReuseDetector) observe(idx uint64, data []byte) {
	if len(data) < crypt.SeedBytes {
		return
	}
	if d.seen == nil {
		d.seen = make(map[[2]uint64][]byte)
		d.last = make(map[uint64]uint64)
	}
	seed := uint64(0)
	for i := 0; i < crypt.SeedBytes; i++ {
		seed = seed<<8 | uint64(data[i])
	}
	key := [2]uint64{idx, seed}
	if prev, ok := d.seen[key]; ok && !bytes.Equal(prev, data) {
		d.Reuses++
	}
	d.seen[key] = bytes.Clone(data)
	if prev, ok := d.last[idx]; ok && seed <= prev {
		d.Regressions++
	}
	d.last[idx] = seed
}
