package frame

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// pinnedDigest is the SHA-256 of wireScript's frames as the parent of the
// framing-kernel refactor encoded them. It was computed once, on that
// commit, and must never be regenerated: a refactor that changes the
// encoder and the decoder together still passes the fuzz round trips, but
// not this.
const pinnedDigest = "6082fa0e030ce5a9bf60fe36f8cfe786deb2dd92286f8dc6cff492e60fd09d76"

// wireScript encodes a fixed sequence of frames covering every op and
// response kind: gets and puts, an empty batch, every per-op status
// including a 503 with its retry-after, and a whole-batch 503.
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
	add(e.Request(0, nil))
	add(e.Request(1, []Op{{Addr: 7}}))
	add(e.Request(2, []Op{
		{Put: true, Addr: 9, Data: []byte("hello")},
		{Addr: 1<<60 + 3},
		{Put: true, Addr: 0, Data: nil},
		{Put: true, Addr: 12, Data: bytes.Repeat([]byte{0xAB}, 40)},
	}))
	add(e.Request(^uint64(0), []Op{{Addr: ^uint64(0)}}))
	add(e.Response(3, Response{}))
	add(e.Response(4, Response{Results: []Result{
		{Status: 200, Data: []byte("payload")},
		{Status: 200},
		{Status: 204},
		{Status: 400, Err: "address out of range"},
		{Status: 413, Err: "payload exceeds block size"},
		{Status: 503, RetryAfterSeconds: 1, Err: "shard quarantined"},
		{Status: 500, Err: "internal"},
	}}))
	add(e.Response(5, Response{Status: 503, RetryAfterSeconds: 30}))
	return out
}

// TestWireBytesPinned pins the encoded bytes of the frame protocol.
func TestWireBytesPinned(t *testing.T) {
	sum := sha256.Sum256(wireScript(t))
	if got := hex.EncodeToString(sum[:]); got != pinnedDigest {
		t.Fatalf("frame wire bytes changed: digest %s, pinned %s", got, pinnedDigest)
	}
}
