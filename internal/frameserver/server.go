// Package frameserver serves the binary streaming transport of an
// oramstore: length-prefixed request/response frames (internal/frame)
// over long-lived TCP connections, dispatching straight into
// store.SubmitBatch with no HTTP layer in between.
//
// The connections themselves are frame.Server's: this package is the
// handler it runs per connection. Each connection is a pipeline: the read
// loop hands request frames to the handler, which submits their batches to
// the shard pipelines without waiting, so multiple batches are in flight
// per connection at once, and a per-batch goroutine queues the response
// frame as soon as its futures resolve — responses leave in completion
// order, correlated to their requests by frame ID, never
// head-of-line-blocked behind a slower batch. The kernel's bounded
// in-flight window is the transport's backpressure: past it the read loop
// stops consuming, TCP pushes back, and the client's sends block.
//
// Per-op outcomes reuse the single-block HTTP routes' status-code contract
// (httpapi.StoreStatus): 200 get served, 204 put stored, 400 caller
// mistake, 413 oversized payload, 503 quarantined shard (with a
// retry-after hint), 500 internal error. A batch that failed entirely
// because the store is draining answers a frame-level 503, so client
// transports retry it like any unavailable server. Malformed frames are different: a
// framing error means the byte stream itself can no longer be trusted, so
// the server drops the connection.
package frameserver

import (
	"errors"
	"log"
	"net/http"
	"time"

	"freecursive/internal/frame"
	"freecursive/internal/httpapi"
	"freecursive/internal/store"
)

// Server accepts frame-protocol connections and serves their batches from
// a store. Create one with New, start it with Serve, stop it with Close
// (both frame.Server's).
type Server struct {
	*frame.Server[frame.Response]
}

// New returns a Server over st. The server is safe for concurrent use and
// may Serve any number of listeners.
func New(st *store.Store) *Server {
	open := func(c *frame.Conn[frame.Response]) frame.Handler[frame.Response] {
		return &conn{st: st, c: c}
	}
	logf := func(format string, args ...any) { log.Printf("frameserver: "+format, args...) }
	return &Server{frame.NewServer(open, logf)}
}

// TransportStats exposes the server's counters for the /metrics endpoint
// (httpapi.TransportSource).
func (s *Server) TransportStats() httpapi.TransportStats {
	st := s.Stats()
	return httpapi.TransportStats{
		Transport:    "binary",
		ConnsOpen:    st.ConnsOpen,
		ConnsTotal:   st.ConnsTotal,
		BytesRead:    st.BytesRead,
		BytesWritten: st.BytesWritten,
		InFlight:     st.InFlight,
		Batches:      st.Frames,
	}
}

// conn is the handler of one connection: its decoder runs on the read
// loop, its encoder on the writer.
type conn struct {
	st  *store.Store
	c   *frame.Conn[frame.Response]
	dec frame.Decoder
	enc frame.Encoder
}

// Encode implements frame.Handler.
func (cn *conn) Encode(id uint64, r frame.Response) ([]byte, error) {
	return cn.enc.Response(id, r)
}

// Frame implements frame.Handler: it validates one decoded batch, submits
// it, and hands the futures to a resolver goroutine so the read loop can
// pick up the next frame while this batch is still in the shard pipelines.
func (cn *conn) Frame(payload []byte, _ time.Time) error {
	id, ops, err := cn.dec.Request(payload)
	if err != nil {
		return err
	}
	// The decoder's ops and their Data alias the connection's read buffer,
	// which the read loop reuses for the next frame while this batch is in
	// flight — copy what the store and the resolver need. One slab holds
	// every put payload. Each result starts as its op's success.
	results := make([]frame.Result, len(ops))
	sops := make([]store.Op, 0, len(ops))
	slot := make([]int, 0, len(ops))
	slab := 0
	for _, op := range ops {
		slab += len(op.Data)
	}
	payloads := make([]byte, 0, slab)
	for i, op := range ops {
		results[i].Status = http.StatusOK
		if op.Put {
			if len(op.Data) > cn.st.BlockBytes() {
				results[i] = frame.Result{Status: http.StatusRequestEntityTooLarge, Err: "payload exceeds block size"}
				continue
			}
			results[i].Status = http.StatusNoContent
			payloads = append(payloads, op.Data...)
			op.Data = payloads[len(payloads)-len(op.Data):]
		}
		sops = append(sops, store.Op{Write: op.Put, Addr: op.Addr, Data: op.Data})
		slot = append(slot, i)
	}

	futs := cn.st.SubmitBatch(sops)
	go cn.resolve(id, futs, results, slot)
	return nil
}

// resolve waits one batch's futures and queues its response frame.
func (cn *conn) resolve(id uint64, futs []*store.Future, results []frame.Result, slot []int) {
	closed := 0
	for j, f := range futs {
		i := slot[j]
		data, err := f.Wait()
		if err == nil {
			if results[i].Status == http.StatusOK {
				results[i].Data = data // a get's value; a put's result carries none
			}
			continue
		}
		if errors.Is(err, store.ErrClosed) {
			closed++
		}
		results[i] = frame.Result{Status: uint16(httpapi.StoreStatus(err)), Err: err.Error()}
		if results[i].Status == http.StatusServiceUnavailable {
			results[i].RetryAfterSeconds = httpapi.RetryAfterSeconds
		}
	}

	resp := frame.Response{Results: results}
	// Whole batch dead because the store is draining: a frame-level 503,
	// so client transports retry against the next server instead of
	// surfacing per-op failures.
	if len(futs) > 0 && closed == len(futs) {
		resp = frame.Response{
			Status:            http.StatusServiceUnavailable,
			RetryAfterSeconds: httpapi.RetryAfterSeconds,
		}
	}

	cn.c.Send(id, resp, time.Time{})
}
