package mem

import "time"

// Latency wraps a Backend and injects a fixed delay into every operation,
// simulating remote or disk-class untrusted memory (the trusted processor /
// untrusted storage split of The Pyramid Scheme). The delay is per
// OPERATION, not per bucket: a batched ReadPath or WritePath pays one delay
// for the whole path, which is exactly the economics that make batched path
// I/O worth modeling. Peek and Poke stay instant — the adversary inspects
// memory at rest, not over the wire — and hooks are delegated so tamper
// ordering is unchanged. The wrapper adds no copying: it inherits the inner
// backend's buffer-ownership semantics (Read may return inner scratch;
// Write does not retain the slice).
type Latency struct {
	Backend
	readDelay  time.Duration
	writeDelay time.Duration
}

// WithLatency wraps inner so every read operation sleeps readDelay and
// every write operation sleeps writeDelay before reaching inner. Zero
// delays are returned unwrapped.
func WithLatency(inner Backend, readDelay, writeDelay time.Duration) Backend {
	if readDelay <= 0 && writeDelay <= 0 {
		return inner
	}
	return &Latency{Backend: inner, readDelay: readDelay, writeDelay: writeDelay}
}

// Read implements Backend, paying the configured read delay first.
//
//oram:offhotpath latency-modeling wrapper whose injected delay dwarfs any allocation
func (l *Latency) Read(idx uint64) ([]byte, error) {
	if l.readDelay > 0 {
		time.Sleep(l.readDelay)
	}
	return l.Backend.Read(idx)
}

// Write implements Backend, paying the configured write delay first.
//
//oram:offhotpath latency-modeling wrapper whose injected delay dwarfs any allocation
func (l *Latency) Write(idx uint64, data []byte) error {
	if l.writeDelay > 0 {
		time.Sleep(l.writeDelay)
	}
	return l.Backend.Write(idx, data)
}

// ReadPath implements PathReader: one read delay for the whole path.
//
//oram:offhotpath latency-modeling wrapper whose injected delay dwarfs any allocation
func (l *Latency) ReadPath(idxs []uint64, out [][]byte) error {
	if l.readDelay > 0 {
		time.Sleep(l.readDelay)
	}
	return l.Backend.ReadPath(idxs, out)
}

// WritePath implements PathWriter: one write delay for the whole path.
//
//oram:offhotpath latency-modeling wrapper whose injected delay dwarfs any allocation
func (l *Latency) WritePath(idxs []uint64, data [][]byte) error {
	if l.writeDelay > 0 {
		time.Sleep(l.writeDelay)
	}
	return l.Backend.WritePath(idxs, data)
}

// Inner returns the wrapped backend.
func (l *Latency) Inner() Backend { return l.Backend }

var _ Backend = (*Latency)(nil)
