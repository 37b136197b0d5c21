package client_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freecursive"
	"freecursive/client"
	"freecursive/internal/httpapi"
	"freecursive/internal/store"
)

// realServer spins the production handler over a small store, the same
// stack cmd/oramstore serves.
func realServer(t *testing.T) (*httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.New(store.Config{
		Shards: 4,
		Blocks: 1 << 10,
		ORAM:   freecursive.Config{BlockBytes: 16, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := httptest.NewServer(httpapi.New(st))
	t.Cleanup(srv.Close)
	return srv, st
}

func newClient(t *testing.T, url string, cfg client.Config) *client.Client {
	t.Helper()
	cfg.Transport = client.JSON(url)
	c, err := client.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestGetPutRoundTrip(t *testing.T) {
	srv, st := realServer(t)
	c := newClient(t, srv.URL, client.Config{})
	want := bytes.Repeat([]byte{0x5A}, st.BlockBytes())
	if err := c.Put(42, want); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Get(42) = %x, want %x", got, want)
	}
	zeros, err := c.Get(43)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(zeros, make([]byte, st.BlockBytes())) {
		t.Fatalf("never-written Get = %x, want zeros", zeros)
	}
}

// TestMicroBatchingCoalesces: MaxBatch concurrent callers must ride ONE
// POST /batch. The flush interval is set far out so only the count trigger
// can release them — if batching were broken the test would hang, not just
// miscount.
func TestMicroBatchingCoalesces(t *testing.T) {
	var posts atomic.Int32
	srv, _ := realServer(t)
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/batch" {
			posts.Add(1)
		}
		resp, err := http.DefaultClient.Post(srv.URL+r.URL.Path, "application/json", r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		var out client.BatchResponse
		json.NewDecoder(resp.Body).Decode(&out)
		json.NewEncoder(w).Encode(out)
	}))
	t.Cleanup(counting.Close)

	const fan = 8
	c := newClient(t, counting.URL, client.Config{
		MaxBatch:      fan,
		FlushInterval: time.Hour, // only the count trigger may flush
	})
	var wg sync.WaitGroup
	for i := 0; i < fan; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Get(uint64(i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := posts.Load(); got != 1 {
		t.Fatalf("%d concurrent gets took %d POSTs, want 1", fan, got)
	}
}

// TestFlushInterval: a lone caller must not wait for MaxBatch peers — the
// interval trigger releases it.
func TestFlushInterval(t *testing.T) {
	srv, _ := realServer(t)
	c := newClient(t, srv.URL, client.Config{
		MaxBatch:      1024,
		FlushInterval: 5 * time.Millisecond,
	})
	done := make(chan error, 1)
	go func() {
		_, err := c.Get(7)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lone Get never flushed; interval trigger broken")
	}
}

// TestClientPartialFailure is the client-layer failure-domain contract: a
// quarantined shard fails only its operations, as typed 503 errors with
// the server's retry hint, both through Get/Put and through an explicit Do
// batch.
func TestClientPartialFailure(t *testing.T) {
	srv, st := realServer(t)
	const victim = 1
	if err := st.Quarantine(victim, nil); err != nil {
		t.Fatal(err)
	}
	c := newClient(t, srv.URL, client.Config{MaxBatch: 4, FlushInterval: time.Millisecond})

	// Get/Put path: per-address outcome follows the shard.
	sawOK, saw503 := false, false
	for addr := uint64(0); addr < 64; addr++ {
		_, err := c.Get(addr)
		if st.ShardOf(addr) == victim {
			e := client.AsError(err)
			if e == nil || e.Status != http.StatusServiceUnavailable {
				t.Fatalf("Get(%d) on quarantined shard = %v, want *Error status 503", addr, err)
			}
			if !e.Temporary() {
				t.Fatalf("503 error not Temporary()")
			}
			if e.RetryAfter <= 0 {
				t.Fatalf("503 error carries no RetryAfter hint")
			}
			saw503 = true
		} else {
			if err != nil {
				t.Fatalf("Get(%d) on healthy shard: %v", addr, err)
			}
			sawOK = true
		}
	}
	if !sawOK || !saw503 {
		t.Fatalf("addresses did not span both shard kinds: ok=%v 503=%v", sawOK, saw503)
	}

	// Explicit Do batch: index-aligned per-op outcomes, no whole-batch error.
	var ops []client.BatchOp
	for addr := uint64(0); addr < 32; addr++ {
		op := client.BatchOp{Op: client.OpGet, Addr: addr}
		if addr%2 == 0 {
			op = client.BatchOp{Op: client.OpPut, Addr: addr,
				Data: bytes.Repeat([]byte{1}, st.BlockBytes())}
		}
		ops = append(ops, op)
	}
	results, err := c.Do(ops)
	if err != nil {
		t.Fatalf("Do returned a whole-batch error: %v", err)
	}
	for i, res := range results {
		onVictim := st.ShardOf(ops[i].Addr) == victim
		if onVictim && res.Status != http.StatusServiceUnavailable {
			t.Fatalf("op %d status = %d, want 503", i, res.Status)
		}
		if !onVictim && res.Status >= 400 {
			t.Fatalf("op %d on healthy shard failed: %d %s", i, res.Status, res.Error)
		}
	}
}

// TestRetryOn503: whole-response 503s (store draining) are retried,
// honoring Retry-After, and the client gives up after MaxRetries.
func TestRetryOn503(t *testing.T) {
	var hits atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		var req client.BatchRequest
		json.NewDecoder(r.Body).Decode(&req)
		out := client.BatchResponse{Results: make([]client.OpResult, len(req.Ops))}
		for i := range out.Results {
			out.Results[i] = client.OpResult{Status: http.StatusOK, Data: []byte{9}}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	}))
	t.Cleanup(flaky.Close)

	c := newClient(t, flaky.URL, client.Config{MaxBatch: 1, MaxRetries: 3})
	got, err := c.Get(0)
	if err != nil {
		t.Fatalf("Get after two 503s: %v", err)
	}
	if !bytes.Equal(got, []byte{9}) || hits.Load() != 3 {
		t.Fatalf("got %x after %d attempts, want 09 after 3", got, hits.Load())
	}

	// A server that never recovers exhausts the retries into a 503 error.
	hits.Store(-1000)
	c2 := newClient(t, flaky.URL, client.Config{MaxBatch: 1, MaxRetries: 1})
	_, err = c2.Get(0)
	e := client.AsError(err)
	if e == nil || e.Status != http.StatusServiceUnavailable {
		t.Fatalf("exhausted retries = %v, want *Error status 503", err)
	}
}

// TestClientErrors: caller mistakes surface with their wire status, and a
// closed client refuses work.
func TestClientErrors(t *testing.T) {
	srv, st := realServer(t)
	c := newClient(t, srv.URL, client.Config{MaxBatch: 1})

	_, err := c.Get(st.Blocks() + 7)
	if e := client.AsError(err); e == nil || e.Status != http.StatusBadRequest {
		t.Fatalf("out-of-range Get = %v, want *Error status 400", err)
	}
	err = c.Put(0, make([]byte, st.BlockBytes()+1))
	if e := client.AsError(err); e == nil || e.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized Put = %v, want *Error status 413", err)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(0); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("Get after Close = %v, want ErrClosed", err)
	}
	if _, err := c.Do([]client.BatchOp{{Op: client.OpGet}}); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("Do after Close = %v, want ErrClosed", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := client.New(client.Config{Transport: client.JSON("")}); err == nil {
		t.Fatal("empty JSON base URL accepted")
	}
	if _, err := client.New(client.Config{Transport: client.JSON("http://x"), MaxBatch: client.MaxOps + 1}); err == nil {
		t.Fatal("MaxBatch over the wire cap accepted")
	}
	if _, err := client.New(client.Config{Transport: client.JSON("http://x"), FlushInterval: -time.Second}); err == nil {
		t.Fatal("negative FlushInterval accepted")
	}
}
