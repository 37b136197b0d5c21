//go:build !amd64

package crypt

// Without an assembly kernel every BucketCipher takes the per-block
// cipher.Block loop, so the kernel entry points are never called.
const aesni = false

func expandKey(key *byte, xk *uint32) { panic("crypt: no AES kernel on this architecture") }

func encBlocks(xk *uint32, ks *byte, n int) { panic("crypt: no AES kernel on this architecture") }
