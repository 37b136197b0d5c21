// Package adversary packages the active-adversary strategies of the threat
// model (§2) as reusable operations against any mem.Backend: bit flips,
// replay of recorded ciphertexts, deletion, and encryption-seed rewinding
// (the §6.4 attack). Tests and examples compose these to validate that
// PMMAC catches what it must and that the encryption schemes resist what
// they claim to — whether the sealed buckets live in a map or on disk.
package adversary

import (
	"bytes"
	"math/rand/v2"
	"sync"

	"freecursive/internal/crypt"
	"freecursive/internal/mem"
)

// IndexTrace records the sequence of bucket indices untrusted memory is
// asked to touch — the adversary's wiretap. It serves two vantage points:
// Hook taps a mem.Backend in-process (the bus probe), and Note can be wired
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

// Hook returns a read- or write-hook that records each index and passes
// the data through untouched (install with SetOnRead/SetOnWrite).
func (t *IndexTrace) Hook() mem.TamperFunc {
	return func(idx uint64, data []byte) []byte {
		t.Note(idx)
		return data
	}
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
		raw := st.Peek(idx)
		if raw == nil {
			continue
		}
		pos := int(f.Offset * float64(len(raw)))
		if pos >= len(raw) {
			pos = len(raw) - 1
		}
		raw[pos] ^= mask
		st.Poke(idx, raw)
		n++
	}
	return n
}

// FlipOne corrupts a single random materialized bucket; returns the index
// and whether one was found.
func (f BitFlipper) FlipOne(st mem.Backend, nBuckets uint64, rng *rand.Rand) (uint64, bool) {
	var candidates []uint64
	for idx := uint64(0); idx < nBuckets; idx++ {
		if st.Peek(idx) != nil {
			candidates = append(candidates, idx)
		}
	}
	if len(candidates) == 0 {
		return 0, false
	}
	idx := candidates[rng.IntN(len(candidates))]
	raw := st.Peek(idx)
	pos := int(f.Offset * float64(len(raw)))
	if pos >= len(raw) {
		pos = len(raw) - 1
	}
	mask := f.Mask
	if mask == 0 {
		mask = 0x01
	}
	raw[pos] ^= mask
	st.Poke(idx, raw)
	return idx, true
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
		if raw := st.Peek(idx); raw != nil {
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
// data) pair is genuine — only counters can catch this.
func (r *Recorder) Replay(st mem.Backend) int {
	for idx := uint64(0); idx < r.n; idx++ {
		if raw, ok := r.snapshot[idx]; ok {
			st.Poke(idx, bytes.Clone(raw))
		} else {
			st.Poke(idx, nil)
		}
	}
	return len(r.snapshot)
}

// Deleter erases buckets — blocks silently vanish.
type Deleter struct{}

// DeleteAll removes every materialized bucket.
func (Deleter) DeleteAll(st mem.Backend, nBuckets uint64) int {
	n := 0
	for idx := uint64(0); idx < nBuckets; idx++ {
		if st.Peek(idx) != nil {
			st.Poke(idx, nil)
			n++
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
		raw := st.Peek(idx)
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
		st.Poke(idx, raw)
		n++
	}
	return n
}

// PadReuseDetector watches bucket writes and reports when the same
// (bucket, seed) pair is sealed twice with different ciphertexts — the
// observable signature of one-time-pad reuse the §6.4 adversary exploits.
// It also counts Regressions: writes whose seed does not exceed the seed the
// same bucket was last written under. An honest controller's seeds only
// climb, under either scheme; a regression is the step before a reuse.
type PadReuseDetector struct {
	seen        map[[2]uint64][]byte // (bucket, seed) -> first ciphertext
	last        map[uint64]uint64    // bucket -> seed of its latest write
	Reuses      int
	Regressions int
}

// Install hooks the detector into a store's write path.
func (d *PadReuseDetector) Install(st mem.Backend) {
	d.seen = make(map[[2]uint64][]byte)
	d.last = make(map[uint64]uint64)
	st.SetOnWrite(func(idx uint64, data []byte) []byte {
		if len(data) >= crypt.SeedBytes {
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
		return data
	})
}
