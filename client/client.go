package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Config parameterizes a Client. Transport is required.
type Config struct {
	// Transport moves batches to the server: client.Binary(addr) for the
	// frame protocol, or any custom Transport. The Client owns it after New
	// and closes it on Close.
	Transport Transport
	// MaxBatch flushes the pending batch when it reaches this many
	// operations (default 16, capped at MaxOps). 1 disables cross-caller
	// batching: every operation is its own request frame.
	MaxBatch int
	// FlushInterval flushes a non-empty pending batch this long after its
	// first operation arrived, so a lone caller is not held hostage
	// waiting for MaxBatch peers (default 2ms).
	FlushInterval time.Duration
	// MaxRetries bounds transport-level retries per batch — network
	// errors and whole-batch 503s (default 3; negative disables).
	MaxRetries int
	// MaxRetryWait caps how long a server Retry-After hint is honored
	// (default 2s). Without a hint, retries back off exponentially from
	// 50ms toward this cap.
	MaxRetryWait time.Duration
}

// Error is a failed operation's outcome: the per-op (or whole-batch)
// status code, the server's error text, and its Retry-After hint when the
// status is 503.
type Error struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

func (e *Error) Error() string {
	return fmt.Sprintf("oramstore: status %d: %s", e.Status, e.Msg)
}

// Temporary reports whether the failure is availability (503) rather than
// a caller or server bug — retrying elsewhere in the address space, or
// later, can succeed.
func (e *Error) Temporary() bool { return e.Status == http.StatusServiceUnavailable }

// AsError unwraps err to this package's *Error, or nil.
func AsError(err error) *Error {
	var e *Error
	if errors.As(err, &e) {
		return e
	}
	return nil
}

// ErrClosed is returned (wrapped) by operations on a closed Client.
var ErrClosed = errors.New("client closed")

// pending is one operation waiting in the collector.
type pending struct {
	op   BatchOp
	done chan outcome
}

type outcome struct {
	data []byte
	err  error
}

// Client is a concurrency-safe oramstore client. See the package
// documentation for batching and retry behavior.
type Client struct {
	cfg Config
	tr  Transport

	mu     sync.Mutex
	pend   []*pending
	timer  *time.Timer
	closed bool
}

// New validates cfg and returns a Client. It does not contact the server
// (the binary transport dials lazily on first use).
func New(cfg Config) (*Client, error) {
	if cfg.Transport == nil {
		return nil, errors.New("client: Config.Transport is required")
	}
	// The built-in transport validates its own configuration eagerly so a
	// typo fails at New, not at the first operation.
	if t, ok := cfg.Transport.(interface{ init() error }); ok {
		if err := t.init(); err != nil {
			return nil, err
		}
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 16
	}
	if cfg.MaxBatch < 1 || cfg.MaxBatch > MaxOps {
		return nil, fmt.Errorf("client: MaxBatch %d not in [1, %d]", cfg.MaxBatch, MaxOps)
	}
	if cfg.FlushInterval == 0 {
		cfg.FlushInterval = 2 * time.Millisecond
	}
	if cfg.FlushInterval < 0 {
		return nil, fmt.Errorf("client: negative FlushInterval %v", cfg.FlushInterval)
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.MaxRetryWait == 0 {
		cfg.MaxRetryWait = 2 * time.Second
	}
	return &Client{cfg: cfg, tr: cfg.Transport}, nil
}

// Get returns the contents of the block at addr (never-written blocks read
// as zeros). The call may be micro-batched with concurrent operations.
func (c *Client) Get(addr uint64) ([]byte, error) {
	return c.submit(BatchOp{Op: OpGet, Addr: addr})
}

// Put writes data to the block at addr (shorter payloads are zero-padded
// by the server). The call may be micro-batched with concurrent
// operations; data must not be modified until Put returns.
func (c *Client) Put(addr uint64, data []byte) error {
	_, err := c.submit(BatchOp{Op: OpPut, Addr: addr, Data: data})
	return err
}

// Do sends ops as one explicit batch, bypassing the micro-batch collector,
// and returns the per-operation outcomes index-aligned with ops. Only
// whole-request failures (transport errors after retries, malformed-batch
// rejections) return an error; per-operation failures are reported in the
// results' Status/Error fields.
func (c *Client) Do(ops []BatchOp) ([]OpResult, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("client: %w", ErrClosed)
	}
	return c.roundTrip(ops)
}

// Close flushes pending operations, fails all future ones with ErrClosed,
// and releases idle connections.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	batch := c.take()
	c.mu.Unlock()
	c.send(batch)
	return c.tr.Close()
}

// submit runs one operation through the collector and waits for its
// outcome. The caller that fills the batch carries it to the wire; a lone
// caller's batch rides the flush timer.
func (c *Client) submit(op BatchOp) ([]byte, error) {
	p := &pending{op: op, done: make(chan outcome, 1)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("client: %w", ErrClosed)
	}
	c.pend = append(c.pend, p)
	var batch []*pending
	switch {
	case len(c.pend) >= c.cfg.MaxBatch:
		batch = c.take()
	case len(c.pend) == 1:
		c.timer = time.AfterFunc(c.cfg.FlushInterval, c.timerFlush)
	}
	c.mu.Unlock()
	c.send(batch)
	out := <-p.done
	return out.data, out.err
}

// take removes and returns the pending batch. Caller holds c.mu.
func (c *Client) take() []*pending {
	batch := c.pend
	c.pend = nil
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	return batch
}

func (c *Client) timerFlush() {
	c.mu.Lock()
	batch := c.take()
	c.mu.Unlock()
	c.send(batch)
}

// send posts one collected batch and distributes the per-op outcomes. A
// whole-request failure fails every operation in the batch with the same
// error.
func (c *Client) send(batch []*pending) {
	if len(batch) == 0 {
		return
	}
	ops := make([]BatchOp, len(batch))
	for i, p := range batch {
		ops[i] = p.op
	}
	results, err := c.roundTrip(ops)
	if err != nil {
		for _, p := range batch {
			p.done <- outcome{err: err}
		}
		return
	}
	for i, p := range batch {
		res := results[i]
		if res.Status >= 400 {
			p.done <- outcome{err: &Error{
				Status:     res.Status,
				Msg:        res.Error,
				RetryAfter: time.Duration(res.RetryAfterSeconds) * time.Second,
			}}
			continue
		}
		p.done <- outcome{data: res.Data}
	}
}

// roundTrip runs one batch through the transport with transport-level
// retries: Transient failures (connection errors) and Temporary *Errors
// (whole-batch 503s — the server answers one when the store is
// draining) retry up to MaxRetries times, honoring Retry-After up to
// MaxRetryWait. Everything else — and a server whose result count does
// not match the batch — is terminal.
func (c *Client) roundTrip(ops []BatchOp) ([]OpResult, error) {
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(c.backoff(attempt, lastErr))
		}
		results, err := c.tr.RoundTrip(context.Background(), ops)
		if err != nil {
			if retryable(err) {
				lastErr = err
				continue
			}
			return nil, err
		}
		if len(results) != len(ops) {
			return nil, fmt.Errorf("client: server returned %d results for %d ops",
				len(results), len(ops))
		}
		return results, nil
	}
	return nil, lastErr
}

// backoff picks the wait before retry attempt n (n >= 1): the server's
// Retry-After hint when lastErr carries one, else exponential from 50ms —
// both capped at MaxRetryWait. The shift is bounded so a large MaxRetries
// cannot overflow the duration into a negative (busy-loop) sleep.
func (c *Client) backoff(attempt int, lastErr error) time.Duration {
	d := c.cfg.MaxRetryWait
	if shift := attempt - 1; shift < 20 { // 50ms << 20 is already ~15h
		d = 50 * time.Millisecond << shift
	}
	if e := AsError(lastErr); e != nil && e.RetryAfter > 0 {
		d = e.RetryAfter
	}
	if d > c.cfg.MaxRetryWait {
		d = c.cfg.MaxRetryWait
	}
	return d
}
