// Package crypt provides the cryptographic primitives the paper builds on:
//
//   - PRF_K implemented with AES-128 (§5.1), used to derive leaf labels from
//     compressed PosMap counters and PMMAC counters.
//   - MAC_K implemented with keyed SHA3-224 (§6.1), truncated to a
//     configurable tag size, used by PMMAC.
//   - Probabilistic bucket encryption with AES counter mode (§3.1), in both
//     the per-bucket-seed scheme of [26] and the global-seed scheme that
//     fixes the one-time-pad replay attack (§6.4).
//
// Everything here runs inside the trusted controller on secret inputs
// (addresses, counters, key material), so the package is marked oblivious:
// the secretflow analyzer rejects control flow or indexing that depends on
// address/leaf-named values, and secretcompare rejects variable-time tag
// comparison.

//oram:oblivious
package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha3"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
)

// PRF is a pseudorandom function keyed with AES-128. Inputs are a pair of
// 64-bit words (typically block address and access counter); the output is a
// 64-bit word. PRF is deterministic for a fixed key.
//
// Eval runs on every PosMap lookup, so the AES input/output scratch lives on
// the struct (stack arrays would escape through the cipher.Block interface
// and allocate per call). Like the controller that owns it, a PRF is NOT
// safe for concurrent use.
type PRF struct {
	block   cipher.Block
	in, out [16]byte
}

// NewPRF builds a PRF from a 16-byte key.
func NewPRF(key []byte) (*PRF, error) {
	if len(key) != 16 {
		return nil, fmt.Errorf("crypt: PRF key must be 16 bytes, got %d", len(key))
	}
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return &PRF{block: b}, nil
}

// Eval computes PRF_K(a || c) and returns the low 64 bits of the AES output.
//
//oram:hotpath
func (p *PRF) Eval(a, c uint64) uint64 {
	binary.BigEndian.PutUint64(p.in[0:8], a)
	binary.BigEndian.PutUint64(p.in[8:16], c)
	p.block.Encrypt(p.out[:], p.in[:])
	return binary.BigEndian.Uint64(p.out[0:8])
}

// Leaf computes PRF_K(a || c) mod 2^levels, i.e. a leaf label for an ORAM
// tree with 2^levels leaves (§5.2.1).
//
//oram:hotpath
func (p *PRF) Leaf(a, c uint64, levels int) uint64 {
	if levels <= 0 {
		return 0
	}
	if levels >= 64 {
		return p.Eval(a, c)
	}
	return p.Eval(a, c) & ((1 << uint(levels)) - 1)
}

// MAC computes keyed SHA3-224 tags over (counter || address || data) tuples,
// truncated to TagBytes, following the PMMAC construction h = MAC_K(c‖a‖d).
// SHA3 is safe to key by prefixing, unlike SHA-2 which would need HMAC.
//
// A MAC reuses one SHA3 state and one output buffer across calls, so the
// steady-state tag-per-access path of PMMAC does not allocate. Like the ORAM
// controller that owns it, a MAC is NOT safe for concurrent use.
type MAC struct {
	key      []byte
	tagBytes int
	h        *sha3.SHA3 // reusable keyed-hash state
	sum      []byte     // reusable Sum output buffer (28 bytes)
}

// DefaultTagBytes is the tag size used throughout the evaluation: 128 bits,
// inside the paper's 80-128 bit range (§6.3).
const DefaultTagBytes = 16

// NewMAC builds a MAC with the given key and tag truncation. tagBytes must
// be in [8, 28] (SHA3-224 emits 28 bytes).
func NewMAC(key []byte, tagBytes int) (*MAC, error) {
	if len(key) == 0 {
		return nil, fmt.Errorf("crypt: MAC key must be non-empty")
	}
	if tagBytes < 8 || tagBytes > 28 {
		return nil, fmt.Errorf("crypt: MAC tag size %d outside [8,28]", tagBytes)
	}
	k := make([]byte, len(key))
	copy(k, key)
	return &MAC{
		key:      k,
		tagBytes: tagBytes,
		h:        sha3.New224(),
		sum:      make([]byte, 0, 28),
	}, nil
}

// TagBytes returns the truncated tag size in bytes.
func (m *MAC) TagBytes() int { return m.tagBytes }

// sumInto computes MAC_K(c || a || d) into the MAC's reusable buffer and
// returns the truncated tag. The result is only valid until the next call on
// this MAC.
//
//oram:hotpath
func (m *MAC) sumInto(c, a uint64, d []byte) []byte {
	m.h.Reset()
	m.h.Write(m.key)
	var hdr [16]byte
	binary.BigEndian.PutUint64(hdr[0:8], c)
	binary.BigEndian.PutUint64(hdr[8:16], a)
	m.h.Write(hdr[:])
	m.h.Write(d)
	m.sum = m.h.Sum(m.sum[:0])
	return m.sum[:m.tagBytes]
}

// Sum computes MAC_K(c || a || d) into a freshly allocated tag. Hot paths
// should prefer AppendTag, which reuses caller memory.
func (m *MAC) Sum(c, a uint64, d []byte) []byte {
	tag := make([]byte, m.tagBytes)
	copy(tag, m.sumInto(c, a, d))
	return tag
}

// AppendTag appends the truncated MAC_K(c || a || d) tag to dst and returns
// the extended slice, allocating only when dst lacks capacity.
//
//oram:hotpath
func (m *MAC) AppendTag(dst []byte, c, a uint64, d []byte) []byte {
	//oramlint:allow hotpathalloc appends into the caller's reusable tag buffer; amortized growth pinned by the AllocsPerRun gates
	return append(dst, m.sumInto(c, a, d)...)
}

// Verify reports whether tag is a valid MAC for (c, a, d). The comparison is
// constant-time in the tag bytes: PMMAC is a production integrity check and
// must not leak how long a forged tag's matching prefix is.
//
//oram:hotpath
func (m *MAC) Verify(tag []byte, c, a uint64, d []byte) bool {
	want := m.sumInto(c, a, d)
	if len(tag) != len(want) {
		return false
	}
	return subtle.ConstantTimeCompare(tag, want) == 1
}

// SeedScheme selects how encryption seeds (AES-CTR counters) are managed.
type SeedScheme int

const (
	// SeedPerBucket stores a plaintext per-bucket seed that increments on
	// every re-encryption, as in [26]. Vulnerable to the seed-replay /
	// one-time-pad-reuse attack of §6.4 when the adversary is active.
	SeedPerBucket SeedScheme = iota
	// SeedGlobal uses a single monotonic counter in the ORAM controller;
	// every bucket encryption consumes fresh seed values (§6.4 fix).
	SeedGlobal
)

func (s SeedScheme) String() string {
	switch s {
	case SeedPerBucket:
		return "per-bucket"
	case SeedGlobal:
		return "global"
	default:
		return fmt.Sprintf("SeedScheme(%d)", int(s))
	}
}

// BucketCipher performs probabilistic encryption of serialized buckets.
// Ciphertexts are laid out as seed (8 bytes, plaintext) || body. The body is
// AES-CTR encrypted with an IV derived from the seed and, for the per-bucket
// scheme, the bucket ID.
type BucketCipher struct {
	block      cipher.Block
	scheme     SeedScheme
	globalSeed uint64 // next seed for SeedGlobal
	// kernel selects the AES-NI kernel (encBlocks under xk) over the
	// per-block block.Encrypt loop; it is fixed at construction.
	kernel bool
	// xk holds the 11 AES-128 round keys the kernel runs on, expanded
	// from the key once. It is derived state and never serialized.
	xk [44]uint32
	// ks is the keystream scratch: a chunk of CTR counter blocks is laid
	// out in it and encrypted in place. It lives on the struct (not the
	// stack) so passing it through the cipher.Block interface does not
	// force a heap escape per bucket.
	ks [padChunk]byte
}

// padChunk is how much keystream pad generates per batch of independent AES
// calls: 32 blocks cover the flagship 388-byte bucket body in one batch,
// longer bodies take several.
const padChunk = 32 * aes.BlockSize

// SeedBytes is the plaintext seed prefix length of every sealed bucket.
const SeedBytes = 8

// NewBucketCipher builds a bucket cipher from a 16-byte AES key.
func NewBucketCipher(key []byte, scheme SeedScheme) (*BucketCipher, error) {
	if len(key) != 16 {
		return nil, fmt.Errorf("crypt: bucket key must be 16 bytes, got %d", len(key))
	}
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	bc := &BucketCipher{block: b, scheme: scheme, globalSeed: 1, kernel: aesni}
	if bc.kernel {
		expandKey(&key[0], &bc.xk[0])
	}
	return bc, nil
}

// Scheme returns the seed scheme in use.
func (bc *BucketCipher) Scheme() SeedScheme { return bc.scheme }

// GlobalSeed returns the controller's current global seed register value.
func (bc *BucketCipher) GlobalSeed() uint64 { return bc.globalSeed }

// SetGlobalSeed restores the global seed register when a persisted
// controller resumes. Rewinding the register below a value it has already
// consumed re-creates the one-time-pad reuse of §6.4 against the
// controller itself — only ever restore a value captured from GlobalSeed.
func (bc *BucketCipher) SetGlobalSeed(v uint64) { bc.globalSeed = v }

// pad XORs body with the bucket's AES-CTR keystream into out (len(out) must
// equal len(body)); sealing and opening are the same operation.
//
//oram:hotpath
func (bc *BucketCipher) pad(bucketID, seed uint64, body []byte, out []byte) {
	// IV layout: bucketID (48 bits) || seed (48 bits) || block counter (32
	// bits, advanced across the body exactly as cipher.NewCTR would). For
	// the global-seed scheme the bucket ID is deliberately excluded:
	// freshness comes from the monotonic controller counter alone (§6.4).
	// Seeds and bucket IDs beyond 2^48 are unreachable in simulation and
	// lose their high bits.
	//
	// The keystream is hand-rolled instead of using cipher.NewCTR so the
	// per-bucket seal/open on the ORAM hot path does not allocate a stream
	// object per bucket; FuzzPadMatchesStdlibCTR and the golden vectors pin
	// the output to the stdlib's and to earlier builds', byte for byte, so
	// on-disk buckets stay compatible.
	if bc.scheme == SeedGlobal {
		bucketID = 0
	}
	// The IV as two big-endian words. Only the low one advances: the block
	// counter starts at zero, so a carry into the high word would take a
	// body of 2^32 blocks.
	hi := bucketID<<16 | (seed>>32)&0xffff
	lo := seed << 32
	for len(body) > 0 {
		n := min(len(body), len(bc.ks))
		ks := bc.ks[:(n+aes.BlockSize-1)&^(aes.BlockSize-1)]
		bc.keystream(ks, hi, lo)
		lo += uint64(len(ks) / aes.BlockSize)
		subtle.XORBytes(out[:n], body[:n], ks[:n])
		body, out = body[n:], out[n:]
	}
}

// keystream fills ks, a whole number of AES blocks, with the encryptions of
// the counter blocks hi || lo, hi || lo+1, ...: every counter block is
// written first, then all are encrypted in place. One AES-NI round has a
// latency of several cycles but the unit accepts a new one every cycle, so
// independent blocks overlap where an encrypt-XOR-increment chain over one
// 16-byte scratch runs them one at a time. With AES-NI the whole chunk is
// one encBlocks call that keeps eight blocks in flight; otherwise it is one
// block.Encrypt call per block, whose call overhead outweighs its 16 bytes
// of AES. The loops live in a function of their own so that their counters
// stay in registers: written inside pad's chunk loop (go1.24, amd64) the
// block counter is spilled and reloaded once per block.
//
//oram:hotpath
func (bc *BucketCipher) keystream(ks []byte, hi, lo uint64) {
	for b := ks; len(b) >= aes.BlockSize; b = b[aes.BlockSize:] {
		binary.BigEndian.PutUint64(b, hi)
		binary.BigEndian.PutUint64(b[8:], lo)
		lo++
	}
	if bc.kernel {
		encBlocks(&bc.xk[0], &ks[0], len(ks)/aes.BlockSize)
		return
	}
	for b := ks; len(b) >= aes.BlockSize; b = b[aes.BlockSize:] {
		bc.block.Encrypt(b, b)
	}
}

// Seal encrypts body for the bucket with the given ID. For SeedPerBucket the
// new seed is prevSeed+1 where prevSeed is the seed the bucket was last
// sealed with (0 for never); for SeedGlobal the controller register is used
// and incremented. The result is seed || ciphertext in a fresh allocation;
// hot paths should prefer SealTo.
func (bc *BucketCipher) Seal(bucketID, prevSeed uint64, body []byte) []byte {
	return bc.SealTo(nil, bucketID, prevSeed, body)
}

// SealTo is Seal writing into dst's capacity (dst is overwritten from length
// zero; pass buf[:0] to reuse buf). It returns the sealed bucket, allocating
// only when dst cannot hold seed || ciphertext. dst must not alias body.
//
//oram:hotpath
func (bc *BucketCipher) SealTo(dst []byte, bucketID, prevSeed uint64, body []byte) []byte {
	var seed uint64
	switch bc.scheme {
	case SeedPerBucket:
		seed = prevSeed + 1
	case SeedGlobal:
		seed = bc.globalSeed
		bc.globalSeed++
	}
	n := SeedBytes + len(body)
	if cap(dst) < n {
		//oramlint:allow hotpathalloc one-time scratch growth when the caller's buffer lacks capacity; steady state reuses it at full size, pinned by the AllocsPerRun gates
		dst = make([]byte, n)
	}
	out := dst[:n]
	binary.BigEndian.PutUint64(out[0:SeedBytes], seed)
	bc.pad(bucketID, seed, body, out[SeedBytes:])
	return out
}

// Open decrypts a sealed bucket, returning the body and the seed it was
// sealed under in a fresh allocation; hot paths should prefer OpenTo. Open
// trusts nothing: the seed is read from the (possibly tampered) ciphertext,
// exactly as a real controller must.
func (bc *BucketCipher) Open(bucketID uint64, sealed []byte) (body []byte, seed uint64, err error) {
	return bc.OpenTo(nil, bucketID, sealed)
}

// OpenTo is Open writing the decrypted body into dst's capacity (dst is
// overwritten from length zero; pass buf[:0] to reuse buf). It allocates
// only when dst cannot hold the body. dst must not alias sealed.
//
//oram:hotpath
func (bc *BucketCipher) OpenTo(dst []byte, bucketID uint64, sealed []byte) (body []byte, seed uint64, err error) {
	if len(sealed) < SeedBytes {
		return nil, 0, fmt.Errorf("crypt: sealed bucket too short (%d bytes)", len(sealed))
	}
	seed = binary.BigEndian.Uint64(sealed[0:SeedBytes])
	n := len(sealed) - SeedBytes
	if cap(dst) < n {
		//oramlint:allow hotpathalloc one-time scratch growth when the caller's buffer lacks capacity; steady state reuses it at full size, pinned by the AllocsPerRun gates
		dst = make([]byte, n)
	}
	body = dst[:n]
	bc.pad(bucketID, seed, sealed[SeedBytes:], body)
	return body, seed, nil
}
