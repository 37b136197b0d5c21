// Package httpapi is the HTTP serving surface over a sharded oblivious
// store: the handler behind cmd/oramstore, split into a package so tests,
// examples, and embedders can mount the exact production routes on any
// listener.
//
// Endpoints:
//
//	GET  /block/{addr}  — read one block (application/octet-stream)
//	PUT  /block/{addr}  — write one block (body zero-padded/truncated)
//	GET  /stats         — aggregate + per-shard counters as JSON
//	GET  /shards        — per-shard lifecycle + pipeline state as JSON
//	GET  /metrics       — the same counters in Prometheus text format
//	GET  /healthz       — liveness probe
//
// The status-code contract separates failure domains: 400 means the caller
// is wrong, 503 (with Retry-After) means the shard serving that address is
// quarantined after a PMMAC integrity violation or the store is draining —
// every other shard keeps serving — and 500 is reserved for true internal
// errors.
//
// HTTP is the admin and debugging surface: batched traffic speaks only the
// binary frame protocol (internal/frameserver), which reuses these status
// codes per operation.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"freecursive"
	"freecursive/internal/store"
)

// RetryAfterSeconds is the Retry-After hint on 503s (header on the
// single-block endpoints, the retry-after fields of binary response
// frames). Quarantine needs an operator (or a restart against intact
// storage), so the hint is a polling cadence, not a recovery estimate.
const RetryAfterSeconds = 30

// TransportStats is a point-in-time snapshot of one serving transport's
// counters, rendered by /metrics under the oramstore_transport_* families
// with a transport label. Serving transports (the binary frame server)
// implement TransportSource and are passed to New.
type TransportStats struct {
	Transport    string // label value, e.g. "binary"
	ConnsOpen    uint64 // currently open connections
	ConnsTotal   uint64 // connections accepted since start
	BytesRead    uint64 // wire bytes read
	BytesWritten uint64 // wire bytes written
	InFlight     uint64 // batches submitted but not yet answered
	Batches      uint64 // batches served since start
}

// TransportSource is a serving transport that can snapshot its counters
// for /metrics.
type TransportSource interface {
	TransportStats() TransportStats
}

// New builds the HTTP handler over a store. The handler is safe for
// concurrent use, like the store itself. Serving transports (the binary
// frame server) may be passed so /metrics exposes their batch, connection
// and traffic counters.
func New(st *store.Store, transports ...TransportSource) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		// One snapshot for both views, so aggregate == sum(per_shard)
		// within a single response even under live traffic.
		perShard := st.ShardStats()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Shards    int                 `json:"shards"`
			Blocks    uint64              `json:"blocks"`
			BlockSize int                 `json:"block_bytes"`
			Aggregate freecursive.Stats   `json:"aggregate"`
			PerShard  []freecursive.Stats `json:"per_shard"`
		}{st.Shards(), st.Blocks(), st.BlockBytes(), store.Aggregate(perShard), perShard})
	})
	mux.HandleFunc("GET /shards", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Shards []store.ShardInfo `json:"shards"`
		}{st.ShardInfos()})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, st, transports)
	})
	mux.HandleFunc("GET /block/{addr}", func(w http.ResponseWriter, r *http.Request) {
		addr, ok := parseAddr(w, r)
		if !ok {
			return
		}
		b, err := st.Get(addr)
		if err != nil {
			writeStoreError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(b)
	})
	mux.HandleFunc("PUT /block/{addr}", func(w http.ResponseWriter, r *http.Request) {
		addr, ok := parseAddr(w, r)
		if !ok {
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, int64(st.BlockBytes())+1))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if len(body) > st.BlockBytes() {
			http.Error(w, fmt.Sprintf("body exceeds block size %d", st.BlockBytes()),
				http.StatusRequestEntityTooLarge)
			return
		}
		if _, err := st.Put(addr, body); err != nil {
			writeStoreError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// StoreStatus maps a store error to the HTTP-class status code both
// serving surfaces share (the single-block routes answer with it,
// internal/frameserver puts the same codes in binary result headers). It
// separates caller mistakes (bad address: 400) from unavailability
// (quarantined shard, store shutting down: 503) from true internal errors
// (500), so monitoring can tell a misbehaving client, a poisoned shard,
// and a broken server apart. A quarantined shard answers 503 rather than
// 500 because only its slice of the address space is down — the client's
// next request for another address will likely succeed.
func StoreStatus(err error) int {
	switch {
	case errors.Is(err, store.ErrOutOfRange):
		return http.StatusBadRequest
	case errors.Is(err, store.ErrQuarantined), errors.Is(err, store.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeStoreError renders a store error with its mapped status, attaching
// Retry-After to 503s.
func writeStoreError(w http.ResponseWriter, err error) {
	code := StoreStatus(err)
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds))
	}
	http.Error(w, err.Error(), code)
}

func parseAddr(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	addr, err := strconv.ParseUint(r.PathValue("addr"), 10, 64)
	if err != nil {
		http.Error(w, "bad address: "+err.Error(), http.StatusBadRequest)
		return 0, false
	}
	return addr, true
}
