package bucketwire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"freecursive/internal/frame"
)

// reqEqual compares decoded requests field by field (slices by content).
func reqEqual(a, b Request) bool {
	if a.Op != b.Op || a.Space != b.Space {
		return false
	}
	if len(a.Idxs) != len(b.Idxs) || len(a.Bufs) != len(b.Bufs) {
		return false
	}
	for i := range a.Idxs {
		if a.Idxs[i] != b.Idxs[i] {
			return false
		}
	}
	for i := range a.Bufs {
		if (a.Bufs[i] == nil) != (b.Bufs[i] == nil) || !bytes.Equal(a.Bufs[i], b.Bufs[i]) {
			return false
		}
	}
	return true
}

func respEqual(a, b Response) bool {
	if a.Op != b.Op || a.Status != b.Status || a.Err != b.Err || a.Bytes != b.Bytes {
		return false
	}
	if len(a.Bufs) != len(b.Bufs) {
		return false
	}
	for i := range a.Bufs {
		if (a.Bufs[i] == nil) != (b.Bufs[i] == nil) || !bytes.Equal(a.Bufs[i], b.Bufs[i]) {
			return false
		}
	}
	return true
}

// TestRequestRoundTrip encodes and decodes every request shape, including
// the nil/empty payload distinction the mem.Backend contract requires.
func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Op: OpReadPath, Space: 7, Idxs: []uint64{42}},
		{Op: OpWritePath, Space: 1, Idxs: []uint64{9}, Bufs: [][]byte{[]byte("sealed bucket")}},
		{Op: OpWritePath, Space: 1, Idxs: []uint64{9}, Bufs: [][]byte{{}}},  // empty but present
		{Op: OpWritePath, Space: 1, Idxs: []uint64{9}, Bufs: [][]byte{nil}}, // delete
		{Op: OpReadPath, Space: 3, Idxs: []uint64{0, 1, 4, 11, 26}},
		{Op: OpReadPath, Space: 3, Idxs: []uint64{}},
		{Op: OpWritePath, Space: 3,
			Idxs: []uint64{0, 2, 6},
			Bufs: [][]byte{[]byte("root"), nil, []byte("leafleaf")}},
		{Op: OpStats, Space: 99},
	}
	var enc Encoder
	var dec Decoder
	for i, want := range cases {
		frame, err := enc.Request(uint64(100+i), want)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		// The codec returns the frame including its 4-byte length prefix.
		if got := binary.LittleEndian.Uint32(frame[:4]); int(got) != len(frame)-4 {
			t.Fatalf("case %d: prefix says %d, frame has %d payload bytes", i, got, len(frame)-4)
		}
		id, got, err := dec.Request(frame[4:])
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if id != uint64(100+i) {
			t.Fatalf("case %d: id %d, want %d", i, id, 100+i)
		}
		if !reqEqual(got, want) {
			t.Fatalf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestResponseRoundTrip does the same for every response shape.
func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{Op: OpReadPath, Bufs: [][]byte{[]byte("bucket bytes")}},
		{Op: OpReadPath, Bufs: [][]byte{nil}}, // absent bucket
		{Op: OpWritePath},
		{Op: OpReadPath, Bufs: [][]byte{[]byte("a"), nil, []byte(""), []byte("dddd")}},
		{Op: OpReadPath, Bufs: [][]byte{}},
		{Op: OpStats, Bytes: 1 << 30},
		{Op: OpReadPath, Status: 500, Err: "injected fault"},
		{Op: OpWritePath, Status: 503, Err: "overload"},
	}
	var enc Encoder
	var dec Decoder
	for i, want := range cases {
		frame, err := enc.Response(uint64(i), want)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		id, got, err := dec.Response(frame[4:])
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if id != uint64(i) {
			t.Fatalf("case %d: id %d", i, id)
		}
		if !respEqual(got, want) {
			t.Fatalf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// mutate returns a copy of frame's payload with one edit applied.
func mutate(t *testing.T, frame []byte, edit func(p []byte) []byte) []byte {
	t.Helper()
	p := bytes.Clone(frame[4:])
	return edit(p)
}

// TestMalformedRequests exercises the decoder's rejection paths: every
// mutation must produce an error (wrapping frame.ErrMalformed, frame.ErrVersion, or
// frame.ErrTooLarge), never a panic or a silent success.
func TestMalformedRequests(t *testing.T) {
	var enc Encoder
	base, err := enc.Request(1, Request{Op: OpWritePath, Space: 2, Idxs: []uint64{3}, Bufs: [][]byte{[]byte("payload")}})
	if err != nil {
		t.Fatal(err)
	}
	base = bytes.Clone(base) // the Encoder's buffer is reused per call
	path, err := enc.Request(2, Request{Op: OpWritePath, Space: 2,
		Idxs: []uint64{1, 2}, Bufs: [][]byte{[]byte("aa"), []byte("bb")}})
	if err != nil {
		t.Fatal(err)
	}
	path = bytes.Clone(path)

	cases := []struct {
		name string
		p    []byte
		want error
	}{
		{"empty", nil, frame.ErrMalformed},
		{"short header", mutate(t, base, func(p []byte) []byte { return p[:10] }), frame.ErrMalformed},
		{"bad magic", mutate(t, base, func(p []byte) []byte { p[0] = 'X'; return p }), frame.ErrMalformed},
		{"bad version", mutate(t, base, func(p []byte) []byte { p[4] = 99; return p }), frame.ErrVersion},
		{"response kind", mutate(t, base, func(p []byte) []byte { p[5] = frame.KindResponse; return p }), frame.ErrMalformed},
		{"reserved set", mutate(t, base, func(p []byte) []byte { p[6] = 1; return p }), frame.ErrMalformed},
		{"zero op", mutate(t, base, func(p []byte) []byte { p[16] = 0; return p }), frame.ErrMalformed},
		{"unknown op", mutate(t, base, func(p []byte) []byte { p[16] = 200; return p }), frame.ErrMalformed},
		{"truncated payload", mutate(t, base, func(p []byte) []byte { return p[:len(p)-3] }), frame.ErrMalformed},
		{"trailing garbage", mutate(t, base, func(p []byte) []byte { return append(p, 0xEE) }), frame.ErrMalformed},
		{"oversized data len", mutate(t, base, func(p []byte) []byte {
			// The data length field sits after header(16)+op(1)+space(8)+count(4)+idx(8).
			binary.LittleEndian.PutUint32(p[37:], MaxBucketBytes+1)
			return p
		}), frame.ErrTooLarge},
		{"writepath count overrun", mutate(t, path, func(p []byte) []byte {
			// Bucket count after header(16)+op(1)+space(8).
			binary.LittleEndian.PutUint32(p[25:], 3)
			return p
		}), frame.ErrMalformed},
		{"writepath count over cap", mutate(t, path, func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p[25:], MaxPathBuckets+1)
			return p
		}), frame.ErrTooLarge},
		{"writepath len overruns frame", mutate(t, path, func(p []byte) []byte {
			// First per-bucket length field: count(4) + idx(8) past offset 25.
			binary.LittleEndian.PutUint32(p[25+4+8:], 1000)
			return p
		}), frame.ErrMalformed},
	}
	var dec Decoder
	for _, tc := range cases {
		if _, _, err := dec.Request(tc.p); !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestMalformedResponses does the same for the response decoder.
func TestMalformedResponses(t *testing.T) {
	var enc Encoder
	read, err := enc.Response(1, Response{Op: OpReadPath, Bufs: [][]byte{[]byte("data")}})
	if err != nil {
		t.Fatal(err)
	}
	read = bytes.Clone(read) // the Encoder's buffer is reused per call
	fail, err := enc.Response(2, Response{Op: OpReadPath, Status: 500, Err: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	fail = bytes.Clone(fail)

	cases := []struct {
		name string
		p    []byte
		want error
	}{
		{"request kind", mutate(t, read, func(p []byte) []byte { p[5] = frame.KindRequest; return p }), frame.ErrMalformed},
		{"truncated", mutate(t, read, func(p []byte) []byte { return p[:len(p)-1] }), frame.ErrMalformed},
		{"trailing garbage", mutate(t, read, func(p []byte) []byte { return append(p, 1) }), frame.ErrMalformed},
		{"errlen overruns", mutate(t, fail, func(p []byte) []byte {
			// errLen after header(16)+op(1)+status(2).
			binary.LittleEndian.PutUint32(p[19:], 1000)
			return p
		}), frame.ErrMalformed},
		{"success with error text", mutate(t, fail, func(p []byte) []byte {
			binary.LittleEndian.PutUint16(p[17:], 0) // clear status, keep message
			return p
		}), frame.ErrMalformed},
		{"payload on error", mutate(t, fail, func(p []byte) []byte { return append(p, 0xAB) }), frame.ErrMalformed},
	}
	var dec Decoder
	for _, tc := range cases {
		if _, _, err := dec.Response(tc.p); !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestRetiredOpsRefused pins that the per-bucket op bytes (read 1, write 2,
// peek 5, poke 6) are gone from both decoders: a frame that spells one of
// them exactly as the protocol once encoded it — a read or peek request
// naming one index and answered with one bucket, a write or poke request
// carrying one bucket and answered with an empty ack — fails to decode as
// frame.ErrMalformed, and the encoder refuses to write one.
func TestRetiredOpsRefused(t *testing.T) {
	for _, op := range []byte{1, 2, 5, 6} {
		var enc Encoder
		if _, err := enc.Request(1, Request{Op: op, Idxs: []uint64{42}}); !errors.Is(err, frame.ErrMalformed) {
			t.Errorf("op %d encodes as a request: err %v", op, err)
		}
		if _, err := enc.Response(1, Response{Op: op}); !errors.Is(err, frame.ErrMalformed) {
			t.Errorf("op %d encodes as a response: err %v", op, err)
		}
		req := frame.AppendHeader(nil, magic, frame.KindRequest, 1)
		req = append(req, op)
		req = binary.LittleEndian.AppendUint64(req, 7)  // space
		req = binary.LittleEndian.AppendUint64(req, 42) // idx
		resp := frame.AppendHeader(nil, magic, frame.KindResponse, 1)
		resp = append(resp, op, 0, 0, 0, 0, 0, 0) // status 0, errLen 0
		bucket := append(binary.LittleEndian.AppendUint32(nil, 4), "data"...)
		if op == 1 || op == 5 {
			resp = append(resp, bucket...)
		} else {
			req = append(req, bucket...)
		}
		var dec Decoder
		if _, _, err := dec.Request(req[4:]); !errors.Is(err, frame.ErrMalformed) {
			t.Errorf("op %d request: err %v, want frame.ErrMalformed", op, err)
		}
		if _, _, err := dec.Response(resp[4:]); !errors.Is(err, frame.ErrMalformed) {
			t.Errorf("op %d response: err %v, want frame.ErrMalformed", op, err)
		}
	}
}

// TestDecodedSlicesAliasFrame pins the zero-copy contract: decoded payloads
// must alias the input frame, not fresh allocations — that aliasing is what
// lets mem.Remote satisfy the PathReader contract without copies.
func TestDecodedSlicesAliasFrame(t *testing.T) {
	var enc Encoder
	var dec Decoder
	frame, err := enc.Response(1, Response{Op: OpReadPath,
		Bufs: [][]byte{[]byte("AAAA"), []byte("BBBB")}})
	if err != nil {
		t.Fatal(err)
	}
	p := bytes.Clone(frame[4:])
	_, resp, err := dec.Response(p)
	if err != nil {
		t.Fatal(err)
	}
	p[len(p)-1] = 'Z' // mutate the frame tail: the last decoded payload byte
	if got := resp.Bufs[1][3]; got != 'Z' {
		t.Fatalf("decoded payload did not alias the frame (got %q)", got)
	}
}

// TestEncoderErrors pins the encoder's own bound checks.
func TestEncoderErrors(t *testing.T) {
	var enc Encoder
	if _, err := enc.Request(1, Request{Op: 0}); !errors.Is(err, frame.ErrMalformed) {
		t.Errorf("zero op: %v", err)
	}
	if _, err := enc.Request(1, Request{Op: OpWritePath, Idxs: []uint64{1}, Bufs: [][]byte{make([]byte, MaxBucketBytes+1)}}); !errors.Is(err, frame.ErrTooLarge) {
		t.Errorf("oversized bucket: %v", err)
	}
	if _, err := enc.Request(1, Request{Op: OpReadPath, Idxs: make([]uint64, MaxPathBuckets+1)}); !errors.Is(err, frame.ErrTooLarge) {
		t.Errorf("oversized path: %v", err)
	}
	if _, err := enc.Request(1, Request{Op: OpWritePath, Idxs: []uint64{1}, Bufs: nil}); err == nil ||
		!strings.Contains(err.Error(), "writepath") {
		t.Errorf("mismatched writepath: %v", err)
	}
}

// requestSeeds and responseSeeds start the two fuzz targets, here and as
// the committed corpus (see TestWriteSeedCorpus): one-bucket and wider
// paths, absent and deleted buckets, stats, and an error answer.
var (
	requestSeeds = []Request{
		{Op: OpReadPath, Space: 1, Idxs: []uint64{2}},
		{Op: OpWritePath, Space: 1, Idxs: []uint64{2}, Bufs: [][]byte{[]byte("d")}},
		{Op: OpWritePath, Space: 1, Idxs: []uint64{2}, Bufs: [][]byte{nil}},
		{Op: OpReadPath, Space: 1, Idxs: []uint64{1, 2, 3}},
		{Op: OpWritePath, Space: 1, Idxs: []uint64{1, 2}, Bufs: [][]byte{[]byte("x"), nil}},
		{Op: OpStats},
	}
	responseSeeds = []Response{
		{Op: OpReadPath, Bufs: [][]byte{[]byte("d")}},
		{Op: OpReadPath, Bufs: [][]byte{nil}},
		{Op: OpReadPath, Bufs: [][]byte{[]byte("a"), nil}},
		{Op: OpStats, Bytes: 100},
		{Op: OpWritePath, Status: 500, Err: "x"},
	}
)

// FuzzDecodeRequest feeds arbitrary bytes through the request decoder and,
// when one decodes, re-encodes and re-decodes it asserting a fixed point —
// the decoder must never panic and must agree with the encoder about what
// the bytes mean.
func FuzzDecodeRequest(f *testing.F) {
	var seedEnc Encoder
	for i, r := range requestSeeds {
		frame, err := seedEnc.Request(uint64(i), r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(frame[4:]))
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		var dec Decoder
		id, req, err := dec.Request(p)
		if err != nil {
			return
		}
		var enc Encoder
		frame, err := enc.Request(id, req)
		if err != nil {
			t.Fatalf("decoded request %+v does not re-encode: %v", req, err)
		}
		// Clone before the second decode: req's slices alias p, and the
		// re-decode scribbles over the decoder scratch.
		want := Request{Op: req.Op, Space: req.Space}
		want.Idxs = append([]uint64(nil), req.Idxs...)
		for _, b := range req.Bufs {
			want.Bufs = append(want.Bufs, bytes.Clone(b))
		}
		id2, req2, err := dec.Request(frame[4:])
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if id2 != id || !reqEqual(req2, want) {
			t.Fatalf("decode/encode not a fixed point:\n got %+v\nwant %+v", req2, want)
		}
	})
}

// FuzzDecodeResponse is the response-side twin of FuzzDecodeRequest.
func FuzzDecodeResponse(f *testing.F) {
	var seedEnc Encoder
	for i, r := range responseSeeds {
		frame, err := seedEnc.Response(uint64(i), r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(frame[4:]))
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		var dec Decoder
		id, resp, err := dec.Response(p)
		if err != nil {
			return
		}
		var enc Encoder
		frame, err := enc.Response(id, resp)
		if err != nil {
			t.Fatalf("decoded response %+v does not re-encode: %v", resp, err)
		}
		want := Response{Op: resp.Op, Status: resp.Status, Err: resp.Err, Bytes: resp.Bytes}
		for _, b := range resp.Bufs {
			want.Bufs = append(want.Bufs, bytes.Clone(b))
		}
		id2, resp2, err := dec.Response(frame[4:])
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if id2 != id || !respEqual(resp2, want) {
			t.Fatalf("decode/encode not a fixed point:\n got %+v\nwant %+v", resp2, want)
		}
	})
}
