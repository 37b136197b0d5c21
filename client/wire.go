package client

import "freecursive/internal/frame"

// This file holds the Go shapes of one batch: the operations a Transport
// carries and the outcomes it brings back. BinaryTransport maps them onto
// the request and response frames of freecursive/internal/frame.

// Op names for BatchOp.Op.
const (
	// OpGet reads a block; the result carries its contents.
	OpGet = "get"
	// OpPut writes a block (shorter payloads are zero-padded). The result
	// carries no data.
	OpPut = "put"
)

// MaxOps is the frame protocol's cap on operations per batch. A larger
// batch is never sent: the encoder refuses it before it reaches the wire.
const MaxOps = frame.MaxOps

// BatchOp is one operation in a batch. Ops execute in slice order per
// shard: an op on the same address as an earlier op in the batch observes
// that op's effect.
type BatchOp struct {
	// Op is OpGet or OpPut.
	Op string
	// Addr is the block address, in [0, capacity).
	Addr uint64
	// Data is the put payload. Ignored for gets; at most the store's block
	// size.
	Data []byte
}

// OpResult is one operation's outcome. Status reuses the single-block HTTP
// endpoints' codes so monitoring and retry logic treat both surfaces
// identically: 200 get served (Data set), 204 put stored, 400 caller
// mistake (out-of-range address), 413 put payload exceeds the
// block size, 503 the address's shard is quarantined or the store is
// draining (RetryAfterSeconds carries the polling hint), 500 internal
// error.
type OpResult struct {
	Status int
	Data   []byte
	Error  string
	// RetryAfterSeconds mirrors the Retry-After header of the single-block
	// endpoints' 503s, per op. Zero unless Status is 503.
	RetryAfterSeconds int
}
