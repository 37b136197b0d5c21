// Package client is the native Go client for an oramstore server — the
// network frontend over the sharded oblivious block store (see
// cmd/oramstore). It speaks the single-block endpoints' semantics through
// mixed-operation batches, pooling connections and batching requests so
// the server's per-shard pipelines see bulk arrivals (which is what makes
// duplicate-read coalescing and shard parallelism pay off over the wire).
//
// # Transport
//
// The Client moves batches through a Transport, set in Config.Transport.
// The built-in one is client.Binary(addr): length-prefixed binary frames
// over a small pool of long-lived TCP connections to the frame listener
// of an oramstore server (`-listen-binary`, 127.0.0.1:8081 by default).
// Batches are pipelined: many in flight per connection, correlated by frame
// ID, answered in completion order, with near-zero-copy encoding. The frame
// protocol is the only batched wire the server speaks; its HTTP listener
// serves single blocks and admin routes only.
//
// # Basic use
//
//	c, err := client.New(client.Config{Transport: client.Binary("localhost:8081")})
//	if err != nil { ... }
//	defer c.Close()
//
//	if err := c.Put(42, data); err != nil { ... }
//	got, err := c.Get(42)
//
// Get and Put are safe for concurrent use from any number of goroutines —
// that is the intended shape: many callers share one Client.
//
// # Micro-batching
//
// Concurrent Get/Put calls do not each pay a wire round-trip. Operations
// gather in a pending batch that is flushed as one request when it
// reaches Config.MaxBatch operations or when Config.FlushInterval elapses
// after the first pending op, whichever comes first. Each call still
// blocks until its own operation resolves, so per-call semantics are
// unchanged; only the wire traffic is reshaped. Set MaxBatch to 1 to
// disable batching (every op becomes its own request).
//
// Callers that already hold a batch can skip the collector and send it
// directly with Do, which also exposes per-operation outcomes instead of
// folding the first failure into an error.
//
// # Errors and retries
//
// Transport-level failures — a connection error, or a whole-batch 503
// (a frame-level status the server answers when the store is draining
// and the entire batch failed for it) — are retried up to
// Config.MaxRetries times, honoring the server's Retry-After hint (capped
// at Config.MaxRetryWait).
// Retrying is safe because both operations are idempotent: a put replaces
// the block's contents. Per-operation failures are NOT retried
// automatically: a 503 there means the address's shard is quarantined
// after an integrity violation, which an operator has to resolve — the
// client surfaces it as an *Error with Status 503 and the server's
// RetryAfter hint, and the caller decides.
//
// Failed operations return an *Error carrying the per-op status code of
// the wire schema (see OpResult): 400 caller mistake, 413 payload too
// large, 503 shard quarantined or store draining, 500 internal.
//
//	if e := client.AsError(err); e != nil && e.Status == 503 {
//		// back off for e.RetryAfter, alert on the shard, ...
//	}
//
// Custom Transport implementations participate in the same retry loop by
// wrapping connection-level failures with Transient and returning
// *Error values for server-reported failures.
//
// # Trust model
//
// The oramstore server IS the trusted ORAM controller: it hides access
// patterns and verifies integrity against its own untrusted storage, not
// against its network clients. This client therefore sends addresses and
// plaintext blocks over the wire like any KV client would — deploy it
// inside the trust boundary (same host or a private, authenticated,
// TLS-terminated network), because anyone observing this traffic sees
// exactly what the ORAM exists to hide from the storage adversary. The
// binary framing adds no confidentiality: it is an efficiency format, not
// an envelope.
package client
