package crypt

// newFallbackCipher builds a BucketCipher pinned to the per-block
// cipher.Block loop, so one test run covers both keystream paths on a
// machine whose ciphers take the AES-NI kernel.
func newFallbackCipher(key []byte, scheme SeedScheme) (*BucketCipher, error) {
	bc, err := NewBucketCipher(key, scheme)
	if err != nil {
		return nil, err
	}
	bc.kernel = false
	return bc, nil
}
