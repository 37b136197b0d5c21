package store

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ShardState is a shard's position in its lifecycle state machine:
//
//	healthy ──ErrIntegrity / Quarantine()──▶ quarantined (terminal)
//	   │
//	   └────────────── Close() ─────────────▶ draining
//
// A healthy shard serves traffic. A quarantined shard has latched a PMMAC
// integrity violation (the paper's §2 processor exception, fail-stop per
// controller) or was fenced by an operator: it fast-fails data requests
// with an error wrapping ErrQuarantined while every other shard keeps
// serving, and it still answers control requests (stats, snapshots of
// other shards are unaffected). A draining shard has stopped accepting new
// requests and is finishing its queue on the way to Close.
type ShardState int32

const (
	// StateHealthy is the normal serving state.
	StateHealthy ShardState = iota
	// StateQuarantined means the shard latched an integrity violation (or
	// an operator fenced it) and fail-stops data requests.
	StateQuarantined
	// StateDraining means Close has begun: the queue is sealed and the
	// owner goroutine is finishing the requests already accepted.
	StateDraining
)

func (s ShardState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateQuarantined:
		return "quarantined"
	case StateDraining:
		return "draining"
	default:
		return fmt.Sprintf("ShardState(%d)", int32(s))
	}
}

// ErrQuarantined is returned (wrapped) for requests routed to a
// quarantined shard. The returned error also wraps the quarantine cause,
// so errors.Is(err, freecursive.ErrIntegrity) still reports true when
// PMMAC triggered it. Serving layers should map it to 503-style
// "try elsewhere / come back later" handling, distinct from internal
// errors: the data on every other shard remains available.
var ErrQuarantined = errors.New("shard quarantined")

// ErrClosed is returned (wrapped) for requests submitted to a store that
// is draining or closed.
var ErrClosed = errors.New("store closed")

// health is the concurrently-readable slice of a shard's lifecycle: the
// owner goroutine and the admin Quarantine path write it, submitters and
// ShardInfos read it without touching the shard's request queue.
type health struct {
	state atomic.Int32
	cause atomic.Pointer[quarantineCause]
}

// quarantineCause boxes the latched error so it can sit in an
// atomic.Pointer.
type quarantineCause struct{ err error }

// State returns the current lifecycle state.
func (h *health) State() ShardState { return ShardState(h.state.Load()) }

// quarantine latches the shard into StateQuarantined with the given cause.
// Only the first call wins; later causes (or a concurrent drain) never
// overwrite the original diagnosis.
func (h *health) quarantine(cause error) {
	if cause == nil {
		cause = errors.New("administratively quarantined")
	}
	if h.cause.CompareAndSwap(nil, &quarantineCause{err: cause}) {
		h.state.Store(int32(StateQuarantined))
	}
}

// drain moves a healthy shard to StateDraining. A quarantined shard stays
// quarantined — that is the more informative terminal state.
func (h *health) drain() {
	h.state.CompareAndSwap(int32(StateHealthy), int32(StateDraining))
}

// err returns the error data requests should fail with in the current
// state, or nil while the shard is healthy.
func (h *health) err() error {
	switch h.State() {
	case StateQuarantined:
		if c := h.cause.Load(); c != nil {
			return fmt.Errorf("store: %w: %w", ErrQuarantined, c.err)
		}
		return fmt.Errorf("store: %w", ErrQuarantined)
	case StateDraining:
		return fmt.Errorf("store: %w", ErrClosed)
	default:
		return nil
	}
}

// Cause returns the latched quarantine cause, or nil.
func (h *health) Cause() error {
	if c := h.cause.Load(); c != nil {
		return c.err
	}
	return nil
}

// ShardInfo is one shard's lifecycle and pipeline view, as reported by
// Store.ShardInfos and the HTTP /shards endpoint.
type ShardInfo struct {
	// Index is the shard's position in the store.
	Index int `json:"index"`
	// State is the lifecycle state ("healthy", "quarantined", "draining").
	State string `json:"state"`
	// QueueLen and QueueCap describe the request queue at the instant of
	// the snapshot.
	QueueLen int `json:"queue_len"`
	QueueCap int `json:"queue_cap"`
	// Enqueued counts data requests accepted into the queue.
	Enqueued uint64 `json:"enqueued"`
	// CoalescedReads counts reads served by fanning out another waiting
	// read's physical ORAM access instead of issuing their own.
	CoalescedReads uint64 `json:"coalesced_reads"`
	// OverlappedAccesses counts ORAM accesses started while an earlier one
	// was still waiting for untrusted memory, and InFlight is how many are
	// waiting at the instant of the snapshot (always 0 or 1 over local
	// memory). Both follow from when requests arrived, never from which
	// addresses they named.
	OverlappedAccesses uint64 `json:"overlapped_accesses"`
	InFlight           int    `json:"in_flight"`
	// Cause is the quarantine cause, empty while healthy.
	Cause string `json:"cause,omitempty"`
}
