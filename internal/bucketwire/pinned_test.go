package bucketwire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// pinnedDigest is the SHA-256 of wireScript's frames as the encoder at
// commit 7744dde, the last that also carried per-bucket operations, encoded
// them. It was computed once, on that commit, and must never be
// regenerated: a refactor that changes the encoder and the decoder together
// still passes the fuzz round trips, but not this.
const pinnedDigest = "c3a1bd457f69deeb6ccb8427c17ddd1d964502f581db88548d0a08a18280ccf4"

// wireScript encodes a fixed sequence of frames covering every op and
// response kind but the stats answer (pinned by its bytes in
// TestWireBytesPinned): full and empty paths, a NilLen absent bucket and a
// delete, and error responses.
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
	add(e.Request(4, Request{Op: OpReadPath, Space: 3, Idxs: []uint64{0, 1, 4, 11, 26}}))
	add(e.Request(5, Request{Op: OpReadPath, Space: 3, Idxs: []uint64{}}))
	add(e.Request(6, Request{Op: OpWritePath, Space: 3,
		Idxs: []uint64{0, 2, 6}, Bufs: [][]byte{[]byte("root"), nil, []byte("leafleaf")}}))
	add(e.Request(7, Request{Op: OpWritePath, Space: 3}))
	add(e.Request(11, Request{Op: OpStats, Space: 99}))
	add(e.Response(17, Response{Op: OpWritePath}))
	add(e.Response(18, Response{Op: OpReadPath, Bufs: [][]byte{[]byte("a"), nil, []byte(""), []byte("dddd")}}))
	add(e.Response(19, Response{Op: OpReadPath, Bufs: [][]byte{}}))
	add(e.Response(21, Response{Op: OpReadPath, Status: 500, Err: "bucketd: injected fault"}))
	add(e.Response(22, Response{Op: OpWritePath, Status: 503, Err: "overload"}))
	return out
}

// statsAnswer is the stats answer for 1 GiB resident, byte for byte: the
// length prefix (31), magic "ORMB", version 1, kind 2 (response), two
// reserved zeros, id 20, op 7, status 0, errLen 0, then resident bytes.
var statsAnswer = []byte{
	31, 0, 0, 0,
	'O', 'R', 'M', 'B', 1, 2, 0, 0,
	20, 0, 0, 0, 0, 0, 0, 0,
	7, 0, 0, 0, 0, 0, 0,
	0, 0, 0, 0x40, 0, 0, 0, 0,
}

// TestWireBytesPinned pins the encoded bytes of the bucket protocol.
func TestWireBytesPinned(t *testing.T) {
	sum := sha256.Sum256(wireScript(t))
	if got := hex.EncodeToString(sum[:]); got != pinnedDigest {
		t.Errorf("bucketwire bytes changed: digest %s, pinned %s", got, pinnedDigest)
	}
	var e Encoder
	if got, err := e.Response(20, Response{Op: OpStats, Bytes: 1 << 30}); err != nil || !bytes.Equal(got, statsAnswer) {
		t.Errorf("stats answer encodes as % x (err %v), pinned % x", got, err, statsAnswer)
	}
}
