package client

import (
	"context"
	"errors"
)

// Transport moves one batch of operations to an oramstore server and
// brings back its index-aligned per-operation results. It is the
// pluggable "how do bytes move" layer of the client: batching, flushing,
// and retrying all live above it in Client and are written once, so a
// Transport only performs a single attempt at a single round-trip.
//
// Contract: on success the results are index-aligned with ops, and
// per-operation failures live in their OpResult (Status >= 400) — only a
// whole-batch failure returns an error. Errors that are worth retrying —
// connection failures, a whole-batch 503 from a draining server — must
// be marked: either an *Error whose Temporary method reports true, or any
// error wrapped by Transient. Everything else is returned to the caller
// as-is, unretried.
//
// Implementations must be safe for concurrent RoundTrip calls. The
// built-in one is Binary (pooled long-lived framed TCP connections); tests
// and decorators supply their own.
type Transport interface {
	RoundTrip(ctx context.Context, ops []BatchOp) ([]OpResult, error)
	// Close releases the transport's connections. RoundTrip calls racing
	// or following Close fail.
	Close() error
}

// transientError marks a transport-level failure the client should retry:
// the batch may not have reached a server at all, or the server declared
// itself temporarily unavailable as a whole.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps err so the client's retry loop treats it as a
// transport-level failure worth retrying. Custom Transport
// implementations use it to classify their connection errors.
func Transient(err error) error { return &transientError{err: err} }

// retryable reports whether the client should retry after err: a
// Transient-wrapped transport failure, or a Temporary *Error
// (whole-batch 503, the draining-server signal).
func retryable(err error) bool {
	var t *transientError
	if errors.As(err, &t) {
		return true
	}
	if e := AsError(err); e != nil {
		return e.Temporary()
	}
	return false
}
