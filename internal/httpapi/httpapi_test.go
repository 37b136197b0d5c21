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
	"freecursive/client"
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
	for _, path := range []string{"/block/notanumber", "/block/-1", "/block/999999999"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s status = %d, want 400", path, resp.StatusCode)
		}
	}
	// Oversized PUT body.
	big := make([]byte, st.BlockBytes()+1)
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/block/0", bytes.NewReader(big))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized PUT status = %d, want 413", resp.StatusCode)
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

// postBatch sends a batch and decodes the response.
func postBatch(t *testing.T, srv *httptest.Server, req client.BatchRequest) (int, client.BatchResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out client.BatchResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusMultiStatus {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

// TestBatchRoundTrip: a mixed put/get batch executes in order and answers
// 200 with per-op results when everything succeeds.
func TestBatchRoundTrip(t *testing.T) {
	srv, st := testServer(t)
	v := bytes.Repeat([]byte{7}, st.BlockBytes())
	code, out := postBatch(t, srv, client.BatchRequest{Ops: []client.BatchOp{
		{Op: client.OpPut, Addr: 10, Data: v},
		{Op: client.OpGet, Addr: 10},
		{Op: client.OpGet, Addr: 11},
	}})
	if code != http.StatusOK {
		t.Fatalf("all-success batch status = %d, want 200", code)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	if out.Results[0].Status != http.StatusNoContent {
		t.Fatalf("put result status = %d, want 204", out.Results[0].Status)
	}
	if out.Results[1].Status != http.StatusOK || !bytes.Equal(out.Results[1].Data, v) {
		t.Fatalf("get-after-put result = %d/%x, want 200/%x",
			out.Results[1].Status, out.Results[1].Data, v)
	}
	if out.Results[2].Status != http.StatusOK || !bytes.Equal(out.Results[2].Data, make([]byte, st.BlockBytes())) {
		t.Fatalf("never-written get = %d/%x, want 200/zeros", out.Results[2].Status, out.Results[2].Data)
	}
}

// TestBatchPartialFailure is the HTTP-layer failure-domain contract: a
// batch spanning a healthy and a quarantined shard answers 207 with per-op
// 503s (carrying retry_after_seconds) for the poisoned shard only;
// out-of-range and malformed ops answer per-op 400, oversized puts 413,
// and the healthy shard's ops succeed in the same response.
func TestBatchPartialFailure(t *testing.T) {
	srv, st := testServer(t)
	const victim = 2
	if err := st.Quarantine(victim, nil); err != nil {
		t.Fatal(err)
	}

	var ops []client.BatchOp
	var wantStatus []int
	for addr := uint64(0); len(ops) < 16 || addrSpansBoth(st, ops, victim); addr++ {
		op := client.BatchOp{Op: client.OpGet, Addr: addr}
		want := http.StatusOK
		if addr%3 == 0 {
			op = client.BatchOp{Op: client.OpPut, Addr: addr,
				Data: bytes.Repeat([]byte{byte(addr)}, st.BlockBytes())}
			want = http.StatusNoContent
		}
		if st.ShardOf(addr) == victim {
			want = http.StatusServiceUnavailable
		}
		ops = append(ops, op)
		wantStatus = append(wantStatus, want)
	}
	ops = append(ops,
		client.BatchOp{Op: client.OpGet, Addr: st.Blocks() + 1},
		client.BatchOp{Op: "frob", Addr: 0},
		client.BatchOp{Op: client.OpPut, Addr: 1, Data: make([]byte, st.BlockBytes()+1)},
	)
	wantStatus = append(wantStatus,
		http.StatusBadRequest, http.StatusBadRequest, http.StatusRequestEntityTooLarge)

	code, out := postBatch(t, srv, client.BatchRequest{Ops: ops})
	if code != http.StatusMultiStatus {
		t.Fatalf("partial-failure batch status = %d, want 207", code)
	}
	if len(out.Results) != len(ops) {
		t.Fatalf("got %d results for %d ops", len(out.Results), len(ops))
	}
	sawOK, saw503 := false, false
	for i, res := range out.Results {
		if res.Status != wantStatus[i] {
			t.Fatalf("op %d (%s %d) status = %d, want %d (err %q)",
				i, ops[i].Op, ops[i].Addr, res.Status, wantStatus[i], res.Error)
		}
		switch res.Status {
		case http.StatusOK, http.StatusNoContent:
			sawOK = true
			if res.Error != "" {
				t.Fatalf("successful op %d carries error %q", i, res.Error)
			}
		case http.StatusServiceUnavailable:
			saw503 = true
			if res.RetryAfterSeconds <= 0 {
				t.Fatalf("503 op %d carries no retry_after_seconds", i)
			}
			if res.Error == "" {
				t.Fatalf("503 op %d carries no error text", i)
			}
		}
	}
	if !sawOK || !saw503 {
		t.Fatalf("batch did not exercise both outcomes: ok=%v 503=%v", sawOK, saw503)
	}
}

// addrSpansBoth reports whether ops still needs to grow to cover both the
// victim and a healthy shard.
func addrSpansBoth(st *store.Store, ops []client.BatchOp, victim int) bool {
	sawVictim, sawHealthy := false, false
	for _, op := range ops {
		if st.ShardOf(op.Addr) == victim {
			sawVictim = true
		} else {
			sawHealthy = true
		}
	}
	return !(sawVictim && sawHealthy)
}

// TestBatchRejectsMalformed: bad JSON and oversized batches fail whole
// with 400 — those are caller bugs, not per-op outcomes.
func TestBatchRejectsMalformed(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := srv.Client().Post(srv.URL+"/batch", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON status = %d, want 400", resp.StatusCode)
	}

	big := client.BatchRequest{Ops: make([]client.BatchOp, client.MaxOps+1)}
	for i := range big.Ops {
		big.Ops[i] = client.BatchOp{Op: client.OpGet, Addr: 0}
	}
	code, _ := postBatch(t, srv, big)
	if code != http.StatusBadRequest {
		t.Fatalf("oversized batch status = %d, want 400", code)
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

// TestBatchDrainingStore503: a batch that fails entirely because the
// store is closing answers a plain 503 + Retry-After (so transport-level
// retry logic fires), not a 207 of per-op errors.
func TestBatchDrainingStore503(t *testing.T) {
	st, err := store.New(store.Config{
		Shards: 2,
		Blocks: 1 << 8,
		ORAM:   freecursive.Config{BlockBytes: 16, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(st))
	t.Cleanup(srv.Close)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(client.BatchRequest{Ops: []client.BatchOp{
		{Op: client.OpGet, Addr: 1}, {Op: client.OpGet, Addr: 2},
	}})
	resp, err := srv.Client().Post(srv.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("batch on closed store status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("whole-response 503 carries no Retry-After")
	}
}
