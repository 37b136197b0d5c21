package bucketwire

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// pinnedDigest is the SHA-256 of wireScript's frames as the parent of the
// framing-kernel refactor encoded them. It was computed once, on that
// commit, and must never be regenerated: a refactor that changes the
// encoder and the decoder together still passes the fuzz round trips, but
// not this.
const pinnedDigest = "22fd2865c1054e2df3f9a4e82236eb7661416d7f9f942bcb6a1c9688746f37ad"

// wireScript encodes a fixed sequence of frames covering every op and
// response kind, a NilLen absent bucket and a poke-delete, empty paths,
// and error responses.
func wireScript(t *testing.T) []byte {
	t.Helper()
	var e Encoder
	var out []byte
	add := func(b []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
	}
	add(e.Request(1, Request{Op: OpRead, Space: 7, Idx: 42}))
	add(e.Request(2, Request{Op: OpWrite, Space: 7, Idx: 9, Data: []byte("sealed bucket")}))
	add(e.Request(3, Request{Op: OpWrite, Space: 7, Idx: 9, Data: []byte{}}))
	add(e.Request(4, Request{Op: OpReadPath, Space: 3, Idxs: []uint64{0, 1, 4, 11, 26}}))
	add(e.Request(5, Request{Op: OpReadPath, Space: 3, Idxs: []uint64{}}))
	add(e.Request(6, Request{Op: OpWritePath, Space: 3,
		Idxs: []uint64{0, 2, 6}, Bufs: [][]byte{[]byte("root"), nil, []byte("leafleaf")}}))
	add(e.Request(7, Request{Op: OpWritePath, Space: 3}))
	add(e.Request(8, Request{Op: OpPeek, Space: ^uint64(0), Idx: ^uint64(0)}))
	add(e.Request(9, Request{Op: OpPoke, Space: 1, Idx: 9, Data: []byte("planted")}))
	add(e.Request(10, Request{Op: OpPoke, Space: 1, Idx: 9, Data: nil}))
	add(e.Request(11, Request{Op: OpStats, Space: 99}))
	add(e.Response(12, Response{Op: OpRead, Data: []byte("bucket bytes")}))
	add(e.Response(13, Response{Op: OpRead, Data: nil}))
	add(e.Response(14, Response{Op: OpPeek, Data: []byte{}}))
	add(e.Response(15, Response{Op: OpWrite}))
	add(e.Response(16, Response{Op: OpPoke}))
	add(e.Response(17, Response{Op: OpWritePath}))
	add(e.Response(18, Response{Op: OpReadPath, Bufs: [][]byte{[]byte("a"), nil, []byte(""), []byte("dddd")}}))
	add(e.Response(19, Response{Op: OpReadPath, Bufs: [][]byte{}}))
	add(e.Response(20, Response{Op: OpStats, Buckets: 123, Bytes: 1 << 30}))
	add(e.Response(21, Response{Op: OpRead, Status: 500, Err: "bucketd: injected fault"}))
	add(e.Response(22, Response{Op: OpWritePath, Status: 503, Err: "overload"}))
	return out
}

// TestWireBytesPinned pins the encoded bytes of the bucket protocol.
func TestWireBytesPinned(t *testing.T) {
	sum := sha256.Sum256(wireScript(t))
	if got := hex.EncodeToString(sum[:]); got != pinnedDigest {
		t.Fatalf("bucketwire bytes changed: digest %s, pinned %s", got, pinnedDigest)
	}
}
