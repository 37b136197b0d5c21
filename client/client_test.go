package client_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freecursive/client"
)

// fakeTransport is a scripted Transport for tests of the Client layer
// itself: reply answers the n-th RoundTrip (n counts from 1), and calls
// and closed record what the Client asked of its transport.
type fakeTransport struct {
	reply  func(n int32, ops []client.BatchOp) ([]client.OpResult, error)
	calls  atomic.Int32
	closed atomic.Bool
}

func (f *fakeTransport) RoundTrip(_ context.Context, ops []client.BatchOp) ([]client.OpResult, error) {
	return f.reply(f.calls.Add(1), ops)
}

func (f *fakeTransport) Close() error {
	f.closed.Store(true)
	return nil
}

// serveAll answers every op with success: gets read data, puts store.
func serveAll(data []byte) func(int32, []client.BatchOp) ([]client.OpResult, error) {
	return func(_ int32, ops []client.BatchOp) ([]client.OpResult, error) {
		out := make([]client.OpResult, len(ops))
		for i, op := range ops {
			out[i] = client.OpResult{Status: http.StatusNoContent}
			if op.Op == client.OpGet {
				out[i] = client.OpResult{Status: http.StatusOK, Data: data}
			}
		}
		return out, nil
	}
}

func newClient(t *testing.T, tr client.Transport, cfg client.Config) *client.Client {
	t.Helper()
	cfg.Transport = tr
	c, err := client.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestGetPutRoundTrip: Put and Get each become one op of the right kind,
// address and payload, and Get returns its result's data.
func TestGetPutRoundTrip(t *testing.T) {
	var sent []client.BatchOp
	tr := &fakeTransport{reply: func(n int32, ops []client.BatchOp) ([]client.OpResult, error) {
		sent = append(sent, ops...)
		return serveAll([]byte("block"))(n, ops)
	}}
	c := newClient(t, tr, client.Config{MaxBatch: 1})
	if err := c.Put(42, []byte("data")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(43)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "block" {
		t.Fatalf("Get(43) = %q, want the result's data", got)
	}
	want := []client.BatchOp{
		{Op: client.OpPut, Addr: 42, Data: []byte("data")},
		{Op: client.OpGet, Addr: 43},
	}
	if len(sent) != len(want) {
		t.Fatalf("transport saw ops %+v, want %+v", sent, want)
	}
	for i := range want {
		if sent[i].Op != want[i].Op || sent[i].Addr != want[i].Addr || !bytes.Equal(sent[i].Data, want[i].Data) {
			t.Fatalf("op %d = %+v, want %+v", i, sent[i], want[i])
		}
	}
}

// TestMicroBatchingCoalesces: MaxBatch concurrent callers must ride ONE
// round trip. The flush interval is set far out so only the count trigger
// can release them — if batching were broken the test would hang, not just
// miscount.
func TestMicroBatchingCoalesces(t *testing.T) {
	const fan = 8
	var width atomic.Int32
	tr := &fakeTransport{reply: func(n int32, ops []client.BatchOp) ([]client.OpResult, error) {
		width.Store(int32(len(ops)))
		return serveAll(nil)(n, ops)
	}}
	c := newClient(t, tr, client.Config{
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
	if got := tr.calls.Load(); got != 1 {
		t.Fatalf("%d concurrent gets took %d round trips, want 1", fan, got)
	}
	if got := width.Load(); got != fan {
		t.Fatalf("the round trip carried %d ops, want %d", got, fan)
	}
}

// TestFlushInterval: a lone caller must not wait for MaxBatch peers — the
// interval trigger releases it.
func TestFlushInterval(t *testing.T) {
	tr := &fakeTransport{reply: serveAll(nil)}
	c := newClient(t, tr, client.Config{
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
	st, addr := binaryServer(t)
	const victim = 1
	if err := st.Quarantine(victim, nil); err != nil {
		t.Fatal(err)
	}
	c := newBinaryClient(t, addr, client.Config{MaxBatch: 4, FlushInterval: time.Millisecond})

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

// TestRetryOn503: whole-batch 503s (store draining) are retried, and the
// client gives up after MaxRetries, surfacing the last 503.
func TestRetryOn503(t *testing.T) {
	draining := &client.Error{Status: http.StatusServiceUnavailable, Msg: "draining", RetryAfter: time.Millisecond}
	tr := &fakeTransport{reply: func(n int32, ops []client.BatchOp) ([]client.OpResult, error) {
		if n <= 2 {
			return nil, draining
		}
		return serveAll([]byte{9})(n, ops)
	}}
	c := newClient(t, tr, client.Config{MaxBatch: 1, MaxRetries: 3})
	got, err := c.Get(0)
	if err != nil {
		t.Fatalf("Get after two 503s: %v", err)
	}
	if !bytes.Equal(got, []byte{9}) || tr.calls.Load() != 3 {
		t.Fatalf("got %x after %d attempts, want 09 after 3", got, tr.calls.Load())
	}

	// A server that never recovers exhausts the retries into a 503 error:
	// MaxRetries+1 attempts, then the last one's error.
	const maxRetries = 2
	never := &fakeTransport{reply: func(int32, []client.BatchOp) ([]client.OpResult, error) {
		return nil, draining
	}}
	c2 := newClient(t, never, client.Config{MaxBatch: 1, MaxRetries: maxRetries})
	_, err = c2.Get(0)
	e := client.AsError(err)
	if e == nil || e.Status != http.StatusServiceUnavailable {
		t.Fatalf("exhausted retries = %v, want *Error status 503", err)
	}
	if got := never.calls.Load(); got != maxRetries+1 {
		t.Fatalf("%d attempts before giving up, want %d", got, maxRetries+1)
	}
}

// TestClientErrors: per-op failures surface as *Error with their wire
// status and text, and a closed client refuses work without touching its
// transport again.
func TestClientErrors(t *testing.T) {
	tr := &fakeTransport{reply: func(_ int32, ops []client.BatchOp) ([]client.OpResult, error) {
		out := make([]client.OpResult, len(ops))
		for i, op := range ops {
			out[i] = client.OpResult{Status: http.StatusBadRequest, Error: "address out of range"}
			if op.Op == client.OpPut {
				out[i] = client.OpResult{Status: http.StatusRequestEntityTooLarge, Error: "payload exceeds block size"}
			}
		}
		return out, nil
	}}
	c := newClient(t, tr, client.Config{MaxBatch: 1})

	_, err := c.Get(7)
	if e := client.AsError(err); e == nil || e.Status != http.StatusBadRequest || e.Msg != "address out of range" || e.Temporary() {
		t.Fatalf("out-of-range Get = %v, want permanent *Error status 400 with the server's text", err)
	}
	err = c.Put(0, []byte("x"))
	if e := client.AsError(err); e == nil || e.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized Put = %v, want *Error status 413", err)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if !tr.closed.Load() {
		t.Fatal("Close did not close the transport")
	}
	before := tr.calls.Load()
	if _, err := c.Get(0); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("Get after Close = %v, want ErrClosed", err)
	}
	if _, err := c.Do([]client.BatchOp{{Op: client.OpGet}}); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("Do after Close = %v, want ErrClosed", err)
	}
	if tr.calls.Load() != before {
		t.Fatal("a closed client still called its transport")
	}
}

func TestConfigValidation(t *testing.T) {
	tr := &fakeTransport{reply: serveAll(nil)}
	if _, err := client.New(client.Config{Transport: tr, MaxBatch: client.MaxOps + 1}); err == nil {
		t.Fatal("MaxBatch over the frame cap accepted")
	}
	if _, err := client.New(client.Config{Transport: tr, FlushInterval: -time.Second}); err == nil {
		t.Fatal("negative FlushInterval accepted")
	}
}
