package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"freecursive"
	"freecursive/internal/crypt"
	"freecursive/internal/store"
)

func testServer(t *testing.T) (*httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.New(store.Config{
		Shards: 4,
		Blocks: 1 << 10,
		ORAM:   freecursive.Config{BlockBytes: 16, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := httptest.NewServer(New(st))
	t.Cleanup(srv.Close)
	return srv, st
}

func TestBlockRoundTrip(t *testing.T) {
	srv, st := testServer(t)
	want := bytes.Repeat([]byte{0xA5}, st.BlockBytes())
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/block/42", bytes.NewReader(want))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT status = %d, want %d", resp.StatusCode, http.StatusNoContent)
	}
	resp, err = srv.Client().Get(srv.URL + "/block/42")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status = %d, want 200", resp.StatusCode)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("GET /block/42 = %x, want %x", got, want)
	}
}

func TestBadRequests(t *testing.T) {
	srv, st := testServer(t)
	for _, tc := range []struct {
		method, path string
		body         []byte
		want         int
	}{
		{http.MethodGet, "/block/notanumber", nil, http.StatusBadRequest},
		{http.MethodGet, "/block/-1", nil, http.StatusBadRequest},
		{http.MethodGet, "/block/999999999", nil, http.StatusBadRequest},
		{http.MethodPut, "/block/0", make([]byte, st.BlockBytes()+1), http.StatusRequestEntityTooLarge},
		// Batches travel only as binary frames; HTTP has no batch route.
		{http.MethodPost, "/batch", []byte(`{"ops":[{"op":"get","addr":1}]}`), http.StatusNotFound},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, bytes.NewReader(tc.body))
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s status = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

func TestHealthAndStats(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status = %d", resp.StatusCode)
	}
	// Touch a block so stats are non-zero, then decode them.
	if _, err := srv.Client().Get(srv.URL + "/block/7"); err != nil {
		t.Fatal(err)
	}
	resp, err = srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Shards    int                 `json:"shards"`
		Aggregate freecursive.Stats   `json:"aggregate"`
		PerShard  []freecursive.Stats `json:"per_shard"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Shards != 4 || len(body.PerShard) != 4 {
		t.Fatalf("stats shards = %d/%d, want 4/4", body.Shards, len(body.PerShard))
	}
	if body.Aggregate.Accesses == 0 {
		t.Fatal("aggregate accesses = 0 after a read")
	}
	// The documented /stats contract: aggregate == fold(per_shard), from
	// one consistent snapshot.
	var sum uint64
	for _, st := range body.PerShard {
		sum += st.Accesses
	}
	if body.Aggregate.Accesses != sum {
		t.Fatalf("aggregate accesses %d != per-shard sum %d", body.Aggregate.Accesses, sum)
	}
	if agg := store.Aggregate(body.PerShard); agg != body.Aggregate {
		t.Fatalf("aggregate %+v != Aggregate(per_shard) %+v", body.Aggregate, agg)
	}
}

// shardsBody decodes GET /shards.
func shardsBody(t *testing.T, srv *httptest.Server) []store.ShardInfo {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/shards status = %d", resp.StatusCode)
	}
	var body struct {
		Shards []store.ShardInfo `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Shards
}

// TestQuarantinedShardStatuses drives the status-code contract end to end:
// quarantined-shard addresses answer 503 with Retry-After, healthy shards
// keep answering 200/204, bad addresses stay 400, and /shards reports the
// lifecycle.
func TestQuarantinedShardStatuses(t *testing.T) {
	srv, st := testServer(t)
	for _, info := range shardsBody(t, srv) {
		if info.State != "healthy" {
			t.Fatalf("shard %d starts %q, want healthy", info.Index, info.State)
		}
	}

	const victim = 1
	if err := st.Quarantine(victim, nil); err != nil {
		t.Fatal(err)
	}

	served, refused := 0, 0
	for addr := uint64(0); addr < 128; addr++ {
		resp, err := srv.Client().Get(fmt.Sprintf("%s/block/%d", srv.URL, addr))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if st.ShardOf(addr) == victim {
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("GET /block/%d (quarantined shard) status = %d, want 503", addr, resp.StatusCode)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("503 for /block/%d carries no Retry-After", addr)
			}
			refused++
		} else {
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /block/%d (healthy shard) status = %d, want 200", addr, resp.StatusCode)
			}
			served++
		}
	}
	if served == 0 || refused == 0 {
		t.Fatalf("test never hit both shard kinds: %d served, %d refused", served, refused)
	}
	// Writes to healthy shards still succeed.
	var healthyAddr uint64
	for st.ShardOf(healthyAddr) == victim {
		healthyAddr++
	}
	req, _ := http.NewRequest(http.MethodPut,
		fmt.Sprintf("%s/block/%d", srv.URL, healthyAddr), bytes.NewReader([]byte{1}))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT to healthy shard status = %d, want 204", resp.StatusCode)
	}
	// Bad addresses remain the client's fault, not availability.
	resp, err = srv.Client().Get(srv.URL + "/block/99999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range status = %d, want 400", resp.StatusCode)
	}

	infos := shardsBody(t, srv)
	for _, info := range infos {
		want := "healthy"
		if info.Index == victim {
			want = "quarantined"
		}
		if info.State != want {
			t.Fatalf("/shards reports shard %d %q, want %q", info.Index, info.State, want)
		}
	}
	if infos[victim].Cause == "" {
		t.Fatal("/shards reports no cause for the quarantined shard")
	}
}

// TestMetrics: /metrics serves Prometheus text with the aggregate and
// per-shard series, and the quarantine enum flips with the lifecycle.
func TestMetrics(t *testing.T) {
	srv, st := testServer(t)
	if _, err := srv.Client().Get(srv.URL + "/block/3"); err != nil {
		t.Fatal(err)
	}
	if err := st.Quarantine(1, nil); err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	// 256-block shards of 16-byte blocks, each sealed with its PMMAC tag: an
	// 8-level tree whose top 7 levels (127 buckets of 4 slots, each a 17-byte
	// header over the block and its tag) fit the default budget.
	treetop := 127 * 4 * (17 + 16 + crypt.DefaultTagBytes)
	for _, want := range []string{
		"# TYPE oramstore_accesses_total counter",
		`oramstore_accesses_total{shard="0"}`,
		"# TYPE oramstore_plb_hit_rate gauge",
		"oramstore_shards 4",
		`oramstore_shard_state{shard="1",state="quarantined"} 1`,
		`oramstore_shard_state{shard="0",state="healthy"} 1`,
		`oramstore_shard_coalesced_reads_total{shard="0"}`,
		`oramstore_shard_overlapped_accesses_total{shard="0"} 0`,
		`oramstore_shard_in_flight_accesses{shard="0"} 0`,
		`oramstore_shard_queue_cap{shard="0"}`,
		`oramstore_treetop_levels{shard="3"} 7`,
		fmt.Sprintf(`oramstore_treetop_bytes{shard="3"} %d`, treetop),
		fmt.Sprintf("oramstore_treetop_bytes %d", 4*treetop),
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
	// The unlabeled aggregate must be present and non-zero after a read.
	var agg uint64
	if _, err := fmt.Sscanf(findLine(t, text, "oramstore_accesses_total "), "oramstore_accesses_total %d", &agg); err != nil {
		t.Fatal(err)
	}
	if agg == 0 {
		t.Fatal("aggregate oramstore_accesses_total is 0 after a read")
	}
}

// findLine returns the first line of text starting with prefix.
func findLine(t *testing.T, text, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	t.Fatalf("no line with prefix %q", prefix)
	return ""
}
