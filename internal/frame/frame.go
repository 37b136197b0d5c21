// Package frame is the framing kernel of the repo's two binary protocols:
// one envelope, the codec of the oramstore streaming transport on it, and
// one connection server (Server) both protocols' servers run on.
//
// The envelope is shared: every frame of either protocol is a length-prefixed
// header whose magic names the protocol — "ORMF" for the oramstore batch
// schema in this file, "ORMB" for internal/bucketwire's bucket schema — and a
// schema-specific body. AppendHeader, Finish and ParseHeader are the envelope
// code, with the magic as a parameter; ReadFrame reads one frame of either
// protocol off a stream.
//
// # Frame layout
//
// Every frame is a 4-byte little-endian length prefix followed by that
// many payload bytes:
//
//	uint32   length     bytes after this field (≤ MaxFrameBytes)
//	[4]byte  magic      "ORMF" (this schema) or "ORMB" (bucketwire)
//	uint8    version    Version (1); unknown versions are rejected
//	uint8    kind       KindRequest (1) or KindResponse (2)
//	[2]byte  reserved   must be zero (room for future flags)
//	uint64   id         frame ID, correlates a response to its request
//
// then a kind-specific body. Requests of the ORMF schema:
//
//	uint32   opCount    ≤ MaxOps
//	opCount × op header (13 bytes each):
//	    uint8   op      opGet (0) or opPut (1)
//	    uint64  addr
//	    uint32  dataLen put payload length; must be 0 for gets
//	payloads            put payloads concatenated in op order
//
// Responses:
//
//	uint16   status     0: per-op results follow; otherwise a whole-batch
//	                    HTTP-class status (e.g. 503 store draining) and
//	                    opCount must be 0
//	uint16   retryAfter whole-batch Retry-After hint, seconds
//	uint32   opCount    ≤ MaxOps
//	opCount × result header (12 bytes each):
//	    uint16  status  per-op HTTP-class status (200/204/400/413/503/500)
//	    uint16  retryAfter  per-op hint, seconds; 0 unless status is 503
//	    uint32  dataLen
//	    uint32  errLen
//	payloads            per result, data bytes then error bytes, in op order
//
// All integers are little-endian. A frame's declared lengths must account
// for its bytes exactly: truncated frames, oversized frames, and trailing
// garbage are all errors (wrapping ErrMalformed), never panics. Because a
// framing error means the stream position itself can no longer be trusted,
// both sides drop the connection on any decode error.
//
// # Version byte
//
// Version is a protocol generation, not a negotiation: a peer that sees a
// version it does not speak must reject the frame (ErrVersion) and close
// the connection. Incompatible layout changes bump it; adding semantics to
// the reserved bytes does not.
//
// # Buffer ownership
//
// In the spirit of the hot-path ownership contracts (see ARCHITECTURE.md),
// the codec recycles its scratch: an Encoder's returned frame is valid
// only until its next call, and a Decoder's returned ops/results — whose
// Data/Err fields alias the input frame — are valid only until its next
// call or until the caller reuses the frame buffer. Copy what must
// outlive the next frame.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the envelope generation both protocols speak.
const Version = 1

// magic opens every ORMF frame payload, catching misframed streams and
// non-protocol peers before any length field is believed.
var magic = [4]byte{'O', 'R', 'M', 'F'}

// Frame kinds.
const (
	KindRequest  = 1
	KindResponse = 2
)

// MaxOps caps operations per frame, and so per batch: freecursive/client
// re-exports this constant as its own MaxOps.
const MaxOps = 4096

// MaxFrameBytes caps a frame's declared payload length, in both protocols:
// 64 MiB holds MaxOps blocks of 16 KiB with headers to spare, and bounds
// what a length-prefix read will ever allocate.
const MaxFrameBytes = 1 << 26

// op codes on the wire.
const (
	opGet = 0
	opPut = 1
)

// Fixed header sizes (bytes).
const (
	prefixLen     = 4                 // the uint32 length prefix
	headerLen     = 4 + 1 + 1 + 2 + 8 // magic, version, kind, reserved, id
	reqOpLen      = 1 + 8 + 4         // op, addr, dataLen
	respHeaderLen = 2 + 2 + 4         // status, retryAfter, opCount
	respOpLen     = 2 + 2 + 4 + 4     // status, retryAfter, dataLen, errLen
)

// Decode errors, shared by both protocols. ErrMalformed wraps every
// structural failure — truncation, trailing bytes, bad magic, impossible
// counts; ErrVersion and ErrTooLarge are split out because callers handle
// them differently (a version mismatch is a deploy skew worth naming, a
// too-large frame is a peer exceeding protocol bounds).
var (
	ErrMalformed = errors.New("malformed frame")
	ErrVersion   = errors.New("unsupported frame version")
	ErrTooLarge  = errors.New("frame exceeds protocol bounds")
)

// Op is one operation in a request frame: a read of Addr, or a write of
// Data to Addr when Put is set. Decoded Data aliases the frame buffer.
type Op struct {
	Put  bool
	Addr uint64
	Data []byte
}

// Result is one operation's outcome in a response frame, carrying the
// HTTP-class status shared with the single-block HTTP routes. Decoded Data/Err alias the
// frame buffer.
type Result struct {
	Status            uint16
	RetryAfterSeconds uint16
	Data              []byte
	Err               string
}

// Response is a decoded response frame body. Status 0 means Results holds
// the per-op outcomes; a nonzero Status is a whole-batch failure (503
// store draining) with no results.
type Response struct {
	Status            uint16
	RetryAfterSeconds uint16
	Results           []Result
}

// AppendHeader starts a frame of the protocol named by magic in buf,
// reusing its storage: the length-prefix placeholder, then the envelope
// header. The caller appends the body and calls Finish.
func AppendHeader(buf []byte, magic [4]byte, kind byte, id uint64) []byte {
	buf = append(buf[:0], 0, 0, 0, 0) // length prefix, patched by Finish
	buf = append(buf, magic[:]...)
	buf = append(buf, Version, kind, 0, 0)
	return binary.LittleEndian.AppendUint64(buf, id)
}

// Finish patches the length prefix of a frame begun by AppendHeader and
// bounds-checks it.
func Finish(frame []byte) ([]byte, error) {
	payload := len(frame) - prefixLen
	if payload > MaxFrameBytes {
		return nil, fmt.Errorf("frame: %w: %d-byte payload", ErrTooLarge, payload)
	}
	binary.LittleEndian.PutUint32(frame[:prefixLen], uint32(payload))
	return frame, nil
}

// ParseHeader validates the envelope of one frame payload (after the length
// prefix) of the protocol named by magic and returns the frame ID and the
// body after the header.
func ParseHeader(p []byte, magic [4]byte, kind byte) (id uint64, body []byte, err error) {
	if len(p) < headerLen {
		return 0, nil, fmt.Errorf("frame: %w: %d-byte header", ErrMalformed, len(p))
	}
	if [4]byte(p[:4]) != magic {
		return 0, nil, fmt.Errorf("frame: %w: bad magic %q", ErrMalformed, p[:4])
	}
	if p[4] != Version {
		return 0, nil, fmt.Errorf("frame: %w: got %d, speak %d", ErrVersion, p[4], Version)
	}
	if p[5] != kind {
		return 0, nil, fmt.Errorf("frame: %w: kind %d, want %d", ErrMalformed, p[5], kind)
	}
	if p[6] != 0 || p[7] != 0 {
		return 0, nil, fmt.Errorf("frame: %w: nonzero reserved bytes", ErrMalformed)
	}
	return binary.LittleEndian.Uint64(p[8:16]), p[headerLen:], nil
}

// Encoder builds frames into a reusable buffer. The zero value is ready to
// use; an Encoder is not safe for concurrent use. Returned frames include
// the length prefix and are valid only until the next call.
type Encoder struct {
	buf []byte
}

// Request encodes one request frame. The returned slice is owned by the
// Encoder and valid until its next call.
func (e *Encoder) Request(id uint64, ops []Op) ([]byte, error) {
	if len(ops) > MaxOps {
		return nil, fmt.Errorf("frame: %w: %d ops (cap %d)", ErrTooLarge, len(ops), MaxOps)
	}
	e.buf = AppendHeader(e.buf, magic, KindRequest, id)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(ops)))
	for _, op := range ops {
		code := byte(opGet)
		var n int
		if op.Put {
			code = opPut
			n = len(op.Data)
		}
		e.buf = append(e.buf, code)
		e.buf = binary.LittleEndian.AppendUint64(e.buf, op.Addr)
		e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(n))
	}
	for _, op := range ops {
		if op.Put {
			e.buf = append(e.buf, op.Data...)
		}
	}
	return Finish(e.buf)
}

// Response encodes one response frame. A nonzero r.Status (whole-batch
// failure) must carry no results. The returned slice is owned by the
// Encoder and valid until its next call.
func (e *Encoder) Response(id uint64, r Response) ([]byte, error) {
	if r.Status != 0 && len(r.Results) > 0 {
		return nil, fmt.Errorf("frame: whole-batch status %d with %d results", r.Status, len(r.Results))
	}
	if len(r.Results) > MaxOps {
		return nil, fmt.Errorf("frame: %w: %d results (cap %d)", ErrTooLarge, len(r.Results), MaxOps)
	}
	e.buf = AppendHeader(e.buf, magic, KindResponse, id)
	e.buf = binary.LittleEndian.AppendUint16(e.buf, r.Status)
	e.buf = binary.LittleEndian.AppendUint16(e.buf, r.RetryAfterSeconds)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(r.Results)))
	for _, res := range r.Results {
		e.buf = binary.LittleEndian.AppendUint16(e.buf, res.Status)
		e.buf = binary.LittleEndian.AppendUint16(e.buf, res.RetryAfterSeconds)
		e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(res.Data)))
		e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(res.Err)))
	}
	for _, res := range r.Results {
		e.buf = append(e.buf, res.Data...)
		e.buf = append(e.buf, res.Err...)
	}
	return Finish(e.buf)
}

// Decoder parses frame payloads into reusable op/result scratch. The zero
// value is ready to use; a Decoder is not safe for concurrent use.
// Returned slices are valid until the next call, and their Data/Err fields
// alias the input frame.
type Decoder struct {
	ops     []Op
	results []Result
}

// opCount validates a declared count against the cap and against the
// bytes actually present for its fixed-width headers, so a hostile count
// can never size an allocation.
func opCount(body []byte, at, width int) (int, error) {
	if len(body) < at+4 {
		return 0, fmt.Errorf("frame: %w: truncated before op count", ErrMalformed)
	}
	n := int(binary.LittleEndian.Uint32(body[at : at+4]))
	if n > MaxOps {
		return 0, fmt.Errorf("frame: %w: %d ops (cap %d)", ErrTooLarge, n, MaxOps)
	}
	if len(body)-at-4 < n*width {
		return 0, fmt.Errorf("frame: %w: %d ops but %d header bytes", ErrMalformed, n, len(body)-at-4)
	}
	return n, nil
}

// Request decodes one request frame payload (after the length prefix).
func (d *Decoder) Request(p []byte) (id uint64, ops []Op, err error) {
	id, body, err := ParseHeader(p, magic, KindRequest)
	if err != nil {
		return 0, nil, err
	}
	n, err := opCount(body, 0, reqOpLen)
	if err != nil {
		return 0, nil, err
	}
	hdr, pay := body[4:4+n*reqOpLen], body[4+n*reqOpLen:]
	d.ops = d.ops[:0]
	for i := 0; i < n; i++ {
		h := hdr[i*reqOpLen:]
		op := Op{Addr: binary.LittleEndian.Uint64(h[1:9])}
		dataLen := int(binary.LittleEndian.Uint32(h[9:13]))
		switch h[0] {
		case opGet:
			if dataLen != 0 {
				return 0, nil, fmt.Errorf("frame: %w: get op carries %d payload bytes", ErrMalformed, dataLen)
			}
		case opPut:
			if dataLen > len(pay) {
				return 0, nil, fmt.Errorf("frame: %w: op %d payload overruns frame", ErrMalformed, i)
			}
			op.Put, op.Data, pay = true, pay[:dataLen:dataLen], pay[dataLen:]
		default:
			return 0, nil, fmt.Errorf("frame: %w: unknown op code %d", ErrMalformed, h[0])
		}
		d.ops = append(d.ops, op)
	}
	if len(pay) != 0 {
		return 0, nil, fmt.Errorf("frame: %w: %d trailing bytes", ErrMalformed, len(pay))
	}
	return id, d.ops, nil
}

// Response decodes one response frame payload (after the length prefix).
func (d *Decoder) Response(p []byte) (id uint64, resp Response, err error) {
	id, body, err := ParseHeader(p, magic, KindResponse)
	if err != nil {
		return 0, Response{}, err
	}
	if len(body) < respHeaderLen {
		return 0, Response{}, fmt.Errorf("frame: %w: truncated response header", ErrMalformed)
	}
	resp.Status = binary.LittleEndian.Uint16(body[0:2])
	resp.RetryAfterSeconds = binary.LittleEndian.Uint16(body[2:4])
	n, err := opCount(body, 4, respOpLen)
	if err != nil {
		return 0, Response{}, err
	}
	if resp.Status != 0 && n > 0 {
		return 0, Response{}, fmt.Errorf("frame: %w: whole-batch status %d with %d results", ErrMalformed, resp.Status, n)
	}
	hdr, pay := body[respHeaderLen:respHeaderLen+n*respOpLen], body[respHeaderLen+n*respOpLen:]
	d.results = d.results[:0]
	for i := 0; i < n; i++ {
		h := hdr[i*respOpLen:]
		dataLen := int(binary.LittleEndian.Uint32(h[4:8]))
		errLen := int(binary.LittleEndian.Uint32(h[8:12]))
		if dataLen+errLen > len(pay) {
			return 0, Response{}, fmt.Errorf("frame: %w: result %d payload overruns frame", ErrMalformed, i)
		}
		res := Result{
			Status:            binary.LittleEndian.Uint16(h[0:2]),
			RetryAfterSeconds: binary.LittleEndian.Uint16(h[2:4]),
		}
		if dataLen > 0 {
			res.Data = pay[:dataLen:dataLen]
		}
		if errLen > 0 {
			res.Err = string(pay[dataLen : dataLen+errLen])
		}
		pay = pay[dataLen+errLen:]
		d.results = append(d.results, res)
	}
	if len(pay) != 0 {
		return 0, Response{}, fmt.Errorf("frame: %w: %d trailing bytes", ErrMalformed, len(pay))
	}
	resp.Results = d.results
	return id, resp, nil
}

// ReadFrame reads one length-prefixed frame payload from r into buf
// (grown as needed) and returns the payload and the buffer for reuse. A
// stream that ends cleanly between frames returns io.EOF; one that ends
// mid-frame returns io.ErrUnexpectedEOF. The declared length is validated
// against MaxFrameBytes before any allocation.
func ReadFrame(r io.Reader, buf []byte) (payload, scratch []byte, err error) {
	// The prefix is read into buf itself: a local array handed to an
	// interface method escapes, one allocation per frame.
	if cap(buf) < prefixLen {
		buf = make([]byte, prefixLen)
	}
	if _, err := io.ReadFull(r, buf[:prefixLen]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, buf, fmt.Errorf("frame: %w: torn length prefix", io.ErrUnexpectedEOF)
		}
		return nil, buf, err
	}
	n := binary.LittleEndian.Uint32(buf[:prefixLen])
	if n > MaxFrameBytes {
		return nil, buf, fmt.Errorf("frame: %w: declared %d-byte payload", ErrTooLarge, n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, buf, fmt.Errorf("frame: %w: stream ended mid-frame", io.ErrUnexpectedEOF)
		}
		return nil, buf, err
	}
	return buf, buf, nil
}
