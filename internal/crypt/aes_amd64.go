package crypt

// aesni reports whether this CPU has the AES-NI instructions encBlocks is
// written in; NewBucketCipher reads it once per cipher.
var aesni = hasAESNI()

func hasAESNI() bool

// expandKey writes the 11 AES-128 round keys of the 16 bytes at key to the
// 176 bytes at xk, in AES byte order.
//
//go:noescape
func expandKey(key *byte, xk *uint32)

// encBlocks AES-128-encrypts the n 16-byte blocks at ks in place under the
// round keys at xk, eight blocks in flight at a time.
//
//go:noescape
//oram:hotpath
func encBlocks(xk *uint32, ks *byte, n int)
