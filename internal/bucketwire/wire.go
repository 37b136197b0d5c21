// Package bucketwire is the wire schema of the remote untrusted bucket
// store: the request/response bodies carried between mem.Remote (the client
// side of the trust boundary) and bucketd (the untrusted server) over a
// long-lived TCP connection. Both sides import this package, so the two
// cannot drift.
//
// It is a schema on internal/frame's envelope, not a codec of its own: the
// length prefix, the header, the bounds and the decode errors
// (frame.ErrMalformed, frame.ErrVersion, ErrTooLarge) are frame's, and the only
// thing bucketwire adds to them is its magic, "ORMB" (ORAM Memory Bucket).
// The magic differs from the oramstore schema's "ORMF" so that a bucketd
// accidentally pointed at an oramstore binary listener (or vice versa)
// fails loudly on frame one.
//
// The protocol carries what untrusted memory serves in the paper's model
// (§3.1): whole paths. There are three operations — readpath and writepath,
// which let an ORAM controller pay ~1 round trip per access instead of
// ~log N, and stats, the server's byte footprint. A single bucket travels
// as a one-bucket path. Every path operation names a SPACE, a 64-bit
// namespace identifier, so one bucketd serves many ORAM trees (per shard,
// per recursion level) without their indices colliding.
//
// # Body layout
//
// After frame's envelope header (magic "ORMB"), requests carry:
//
//	uint8    op         OpReadPath, OpWritePath or OpStats
//	uint64   space      namespace identifier
//	op-specific:
//	  readpath:         uint32 count (≤ MaxPathBuckets), count × uint64 idx
//	  writepath:        uint32 count, count × (uint64 idx, uint32 dataLen),
//	                    payloads concatenated in idx order (NilLen: no
//	                    payload, nil data — the bucket is deleted)
//	  stats:            empty
//
// Responses echo the request op, then:
//
//	uint16   status     0: success, payload follows; nonzero: an error
//	                    class (HTTP-style), no payload
//	uint32   errLen     error message length (0 when status is 0)
//	bytes    err
//	success payload:
//	  readpath:         uint32 count, count × uint32 dataLen, payloads
//	                    (NilLen: absent bucket, no payload bytes)
//	  writepath:        empty
//	  stats:            uint64 bytes
//
// All integers are little-endian. As for every frame, a body's declared
// lengths must account for its bytes exactly: truncated frames, counts
// that outrun the bytes present, and trailing garbage are all errors
// (wrapping frame.ErrMalformed), never panics, and no declared count or
// length sizes an allocation before it is validated against the bytes
// actually present. A framing error means the stream position can no
// longer be trusted, so both sides drop the connection on any decode error.
//
// # Buffer ownership
//
// The codec recycles its scratch, matching the repo's hot-path ownership
// contracts: an Encoder's returned frame is valid only until its next call,
// and a Decoder's returned Request/Response — whose Bufs entries alias the
// input frame — is valid only until the caller reuses the frame buffer.
// That aliasing is what lets mem.Remote satisfy the PathReader contract
// with zero copies: the decoded readpath payloads ARE the frame buffer,
// valid until the next operation reuses it.
package bucketwire

import (
	"encoding/binary"
	"fmt"

	"freecursive/internal/frame"
)

// magic names the bucket schema on frame's envelope.
var magic = [4]byte{'O', 'R', 'M', 'B'}

// Operations. The byte values are pinned wire format; every other op byte —
// zero, which keeps an all-zero frame from decoding, and the gaps 1, 2, 5
// and 6 among them — fails to decode as frame.ErrMalformed.
const (
	OpReadPath  byte = 3
	OpWritePath byte = 4
	OpStats     byte = 7
)

// MaxPathBuckets caps the bucket count of a readpath/writepath: a path
// holds L+1 buckets and L is ~log2 of the tree, so 1024 is astronomically
// beyond any real geometry while keeping a hostile count harmless.
const MaxPathBuckets = 1024

// MaxBucketBytes caps one sealed bucket's declared length (4 MiB; real
// buckets are seed + Z slots, kilobytes).
const MaxBucketBytes = 1 << 22

// NilLen is the length sentinel distinguishing an absent (nil) bucket from
// an empty one: reads of never-written buckets and deletes both carry nil,
// and the distinction is part of the mem.Backend contract.
const NilLen = ^uint32(0)

// Request is one decoded request. Which fields are meaningful depends on
// Op; decoded Bufs entries alias the frame buffer.
type Request struct {
	Op    byte
	Space uint64
	Idxs  []uint64 // readpath, writepath
	Bufs  [][]byte // writepath payloads, parallel to Idxs; nil deletes
}

// Response is one decoded response. Status 0 is success; nonzero carries an
// HTTP-class error code with the message in Err and no payload. Decoded
// Bufs entries alias the frame buffer.
type Response struct {
	Op     byte
	Status uint16
	Err    string
	Bufs   [][]byte // readpath (nil entries: absent buckets)
	Bytes  uint64   // stats: resident bytes
}

// Encoder builds frames into a reusable buffer. The zero value is ready to
// use; an Encoder is not safe for concurrent use. Returned frames include
// the length prefix and are valid only until the next call.
type Encoder struct {
	buf []byte
}

// appendLen appends a payload-length field, encoding nil as NilLen.
func (e *Encoder) appendLen(data []byte) error {
	if data == nil {
		e.buf = binary.LittleEndian.AppendUint32(e.buf, NilLen)
		return nil
	}
	if len(data) > MaxBucketBytes {
		return fmt.Errorf("bucketwire: %w: %d-byte bucket (cap %d)", frame.ErrTooLarge, len(data), MaxBucketBytes)
	}
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(data)))
	return nil
}

// appendPath appends a path of n buckets: the count, per bucket its index
// (unless idxs is nil) and length field (unless bufs is nil), then the
// payloads.
func (e *Encoder) appendPath(n int, idxs []uint64, bufs [][]byte) error {
	if n > MaxPathBuckets {
		return fmt.Errorf("bucketwire: %w: %d path buckets (cap %d)", frame.ErrTooLarge, n, MaxPathBuckets)
	}
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(n))
	for i := 0; i < n; i++ {
		if idxs != nil {
			e.buf = binary.LittleEndian.AppendUint64(e.buf, idxs[i])
		}
		if bufs != nil {
			if err := e.appendLen(bufs[i]); err != nil {
				return err
			}
		}
	}
	for _, b := range bufs {
		e.buf = append(e.buf, b...)
	}
	return nil
}

// Request encodes one request frame. The returned slice is owned by the
// Encoder and valid until its next call.
func (e *Encoder) Request(id uint64, req Request) ([]byte, error) {
	e.buf = frame.AppendHeader(e.buf, magic, frame.KindRequest, id)
	e.buf = append(e.buf, req.Op)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, req.Space)
	var err error
	switch req.Op {
	case OpReadPath:
		err = e.appendPath(len(req.Idxs), req.Idxs, nil)
	case OpWritePath:
		if len(req.Idxs) != len(req.Bufs) {
			return nil, fmt.Errorf("bucketwire: writepath has %d idxs but %d buffers", len(req.Idxs), len(req.Bufs))
		}
		err = e.appendPath(len(req.Idxs), req.Idxs, req.Bufs)
	case OpStats:
		// no operands
	default:
		err = fmt.Errorf("bucketwire: %w: unknown op %d", frame.ErrMalformed, req.Op)
	}
	if err != nil {
		return nil, err
	}
	return frame.Finish(e.buf)
}

// Response encodes one response frame. A nonzero Status carries only the
// error message; a success carries the op-specific payload. The returned
// slice is owned by the Encoder and valid until its next call.
func (e *Encoder) Response(id uint64, resp Response) ([]byte, error) {
	e.buf = frame.AppendHeader(e.buf, magic, frame.KindResponse, id)
	e.buf = append(e.buf, resp.Op)
	e.buf = binary.LittleEndian.AppendUint16(e.buf, resp.Status)
	if resp.Status != 0 {
		e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(resp.Err)))
		e.buf = append(e.buf, resp.Err...)
		return frame.Finish(e.buf)
	}
	e.buf = binary.LittleEndian.AppendUint32(e.buf, 0) // errLen
	var err error
	switch resp.Op {
	case OpWritePath:
		// no payload
	case OpReadPath:
		err = e.appendPath(len(resp.Bufs), nil, resp.Bufs)
	case OpStats:
		e.buf = binary.LittleEndian.AppendUint64(e.buf, resp.Bytes)
	default:
		err = fmt.Errorf("bucketwire: %w: unknown op %d", frame.ErrMalformed, resp.Op)
	}
	if err != nil {
		return nil, err
	}
	return frame.Finish(e.buf)
}

// Decoder parses frame payloads into reusable scratch. The zero value is
// ready to use; a Decoder is not safe for concurrent use. Returned
// Request/Response slices are valid until the next call and alias the input
// frame.
type Decoder struct {
	idxs []uint64
	bufs [][]byte
}

// sliceLen interprets one decoded length field: how many payload bytes it
// consumes (0 for NilLen) and whether the bucket is present.
func sliceLen(v uint32) (n int, present bool, err error) {
	if v == NilLen {
		return 0, false, nil
	}
	if v > MaxBucketBytes {
		return 0, false, fmt.Errorf("bucketwire: %w: %d-byte bucket (cap %d)", frame.ErrTooLarge, v, MaxBucketBytes)
	}
	return int(v), true, nil
}

// take returns data[:n] (nil when the length field said absent) and the
// rest, never allocating: a decoded payload aliases the frame.
func take(data []byte, n int, present bool) ([]byte, []byte) {
	if !present {
		return nil, data
	}
	return data[:n:n], data[n:]
}

// path decodes a path body into d.idxs (with idxs) and d.bufs (with bufs):
// the count, per bucket an index and a length field, then the payloads,
// which must end the body. No count sizes anything before the bytes for
// its headers are known to be present.
func (d *Decoder) path(body []byte, idxs, bufs bool) error {
	width := 0
	if idxs {
		width += 8
	}
	if bufs {
		width += 4
	}
	if len(body) < 4 {
		return fmt.Errorf("bucketwire: %w: truncated before path count", frame.ErrMalformed)
	}
	n := int(binary.LittleEndian.Uint32(body))
	if n > MaxPathBuckets {
		return fmt.Errorf("bucketwire: %w: %d path buckets (cap %d)", frame.ErrTooLarge, n, MaxPathBuckets)
	}
	if len(body)-4 < n*width {
		return fmt.Errorf("bucketwire: %w: %d path buckets but %d header bytes", frame.ErrMalformed, n, len(body)-4)
	}
	hdr, pay := body[4:4+n*width], body[4+n*width:]
	d.idxs, d.bufs = d.idxs[:0], d.bufs[:0]
	for i := 0; i < n; i++ {
		h := hdr[i*width:]
		if idxs {
			d.idxs = append(d.idxs, binary.LittleEndian.Uint64(h))
			h = h[8:]
		}
		if !bufs {
			continue
		}
		m, present, err := sliceLen(binary.LittleEndian.Uint32(h))
		if err != nil {
			return err
		}
		if m > len(pay) {
			return fmt.Errorf("bucketwire: %w: path bucket %d overruns frame", frame.ErrMalformed, i)
		}
		var b []byte
		b, pay = take(pay, m, present)
		d.bufs = append(d.bufs, b)
	}
	if len(pay) != 0 {
		return fmt.Errorf("bucketwire: %w: %d trailing bytes after path", frame.ErrMalformed, len(pay))
	}
	return nil
}

// Request decodes one request frame payload (after the length prefix).
func (d *Decoder) Request(p []byte) (id uint64, req Request, err error) {
	id, body, err := frame.ParseHeader(p, magic, frame.KindRequest)
	if err != nil {
		return 0, Request{}, err
	}
	if len(body) < 9 {
		return 0, Request{}, fmt.Errorf("bucketwire: %w: truncated request header", frame.ErrMalformed)
	}
	req.Op = body[0]
	req.Space = binary.LittleEndian.Uint64(body[1:9])
	rest := body[9:]
	switch req.Op {
	case OpReadPath:
		err = d.path(rest, true, false)
		req.Idxs = d.idxs
	case OpWritePath:
		err = d.path(rest, true, true)
		req.Idxs, req.Bufs = d.idxs, d.bufs
	case OpStats:
		if len(rest) != 0 {
			err = fmt.Errorf("bucketwire: %w: %d trailing bytes after stats", frame.ErrMalformed, len(rest))
		}
	default:
		err = fmt.Errorf("bucketwire: %w: unknown op %d", frame.ErrMalformed, req.Op)
	}
	if err != nil {
		return 0, Request{}, err
	}
	return id, req, nil
}

// Response decodes one response frame payload (after the length prefix).
func (d *Decoder) Response(p []byte) (id uint64, resp Response, err error) {
	id, body, err := frame.ParseHeader(p, magic, frame.KindResponse)
	if err != nil {
		return 0, Response{}, err
	}
	if len(body) < 7 {
		return 0, Response{}, fmt.Errorf("bucketwire: %w: truncated response header", frame.ErrMalformed)
	}
	resp.Op = body[0]
	resp.Status = binary.LittleEndian.Uint16(body[1:3])
	errLen := int(binary.LittleEndian.Uint32(body[3:7]))
	rest := body[7:]
	switch {
	case errLen > len(rest):
		err = fmt.Errorf("bucketwire: %w: error message overruns frame", frame.ErrMalformed)
	case resp.Status == 0 && errLen != 0:
		err = fmt.Errorf("bucketwire: %w: success carries an error message", frame.ErrMalformed)
	case resp.Status != 0 && errLen != len(rest):
		err = fmt.Errorf("bucketwire: %w: %d payload bytes on an error response", frame.ErrMalformed, len(rest)-errLen)
	case resp.Status != 0:
		resp.Err = string(rest)
	default:
		switch resp.Op {
		case OpWritePath:
			if len(rest) != 0 {
				err = fmt.Errorf("bucketwire: %w: %d trailing bytes after ack", frame.ErrMalformed, len(rest))
			}
		case OpReadPath:
			err = d.path(rest, false, true)
			resp.Bufs = d.bufs
		case OpStats:
			if len(rest) != 8 {
				err = fmt.Errorf("bucketwire: %w: stats payload is %d bytes", frame.ErrMalformed, len(rest))
				break
			}
			resp.Bytes = binary.LittleEndian.Uint64(rest)
		default:
			err = fmt.Errorf("bucketwire: %w: unknown op %d", frame.ErrMalformed, resp.Op)
		}
	}
	if err != nil {
		return 0, Response{}, err
	}
	return id, resp, nil
}
