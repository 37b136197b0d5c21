package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"freecursive"
	"freecursive/client"
	"freecursive/internal/adversary"
	"freecursive/internal/bucketd"
	"freecursive/internal/core"
	"freecursive/internal/frameserver"
	"freecursive/internal/httpapi"
	"freecursive/internal/mem"
	"freecursive/internal/store"
)

// TestNoSecretValuesOnObservableSurfaces is the runtime twin of the
// leaksink/secretflow analyzers: it runs the full serving stack (store over
// a live bucketd, HTTP admin routes, binary frame server), wiretaps every
// bucket index the untrusted server observes — the adversary's view, correlated
// with leaves and positions — and then asserts that none of those values
// appears on any surface an operator or client ever sees: HTTP and frame
// error payloads, /metrics output, /shards JSON, or /stats JSON. A
// distinctive out-of-range address doubles as a canary: the store must
// reject it without echoing it back.
func TestNoSecretValuesOnObservableSurfaces(t *testing.T) {
	for _, kind := range core.BackendKinds() {
		t.Run(kind, func(t *testing.T) { testNoSecretLeak(t, kind) })
	}
}

// secretFloor separates bucket indices that can only be deep-path (leaf
// region) positions from small integers that legitimately appear in public
// output (status codes, shard ids, queue depths). With 1<<12 blocks and
// Z=4 the data tree's leaf buckets live at heap indices >= 1023, so every
// access observes at least one index above the floor.
const secretFloor = 1024

// canaryAddr is an out-of-range block address no counter or bucket index
// can collide with. Error payloads must describe the rejection without
// echoing it.
const canaryAddr = uint64(0xDEADBEEF) // 3735928559

func testNoSecretLeak(t *testing.T, backendKind string) {
	// Untrusted bucket server with the adversary's wiretap: every bucket
	// index any data operation touches, across every namespace.
	var (
		traceMu  sync.Mutex
		observed = make(map[uint64]bool)
	)
	bsrv := bucketd.New(bucketd.Config{
		Trace: func(op byte, space, idx uint64) {
			traceMu.Lock()
			observed[idx] = true
			traceMu.Unlock()
		},
	})
	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go bsrv.Serve(bln)
	defer bsrv.Close()

	// Trusted stack serving both listeners. 1<<12 blocks keeps the leaf
	// region of the tree well above secretFloor while the run's op counts
	// stay below it.
	st, err := store.New(store.Config{
		Shards:  1,
		Blocks:  1 << 12,
		MemAddr: bln.Addr().String(),
		ORAM: freecursive.Config{
			Scheme: freecursive.PIC, BlockBytes: 32, Seed: 7,
			Backend: backendKind, StashCapacity: 64,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	hsrv := httptest.NewServer(httpapi.New(st))
	defer hsrv.Close()
	fsrv := frameserver.New(st)
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fsrv.Serve(fln)
	defer fsrv.Close()

	bc, err := client.New(client.Config{Transport: client.Binary(fln.Addr().String()), MaxBatch: 1, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()

	// payloads collects every error string a client or operator could see,
	// labeled by where it came from.
	type payload struct {
		where string
		text  string
	}
	var payloads []payload
	addPayload := func(where, text string) {
		payloads = append(payloads, payload{where, text})
	}

	// Healthy traffic, spread across the address space so the wiretap
	// observes many distinct paths.
	blk := bytes.Repeat([]byte{0x5a}, st.BlockBytes())
	for a := uint64(0); a < 48; a++ {
		addr := (a * 61) % (1 << 12)
		if err := bc.Put(addr, blk); err != nil {
			t.Fatalf("binary Put(%d): %v", addr, err)
		}
		if _, err := bc.Get(addr); err != nil {
			t.Fatalf("binary Get(%d): %v", addr, err)
		}
	}

	// Canary rejections: the frame transport and the raw single-block HTTP
	// endpoint. Every payload is collected for the leak scan.
	if _, err := bc.Get(canaryAddr); err == nil {
		t.Fatal("binary Get(canary) succeeded")
	} else {
		addPayload("binary canary get", err.Error())
	}
	resp, err := http.Get(fmt.Sprintf("%s/block/%d", hsrv.URL, canaryAddr))
	if err != nil {
		t.Fatal(err)
	}
	rawBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET /block/{canary} = %d, want 400", resp.StatusCode)
	}
	addPayload("http canary body", string(rawBody))

	// Tamper campaign: corrupt shard 0's data tree over the wire so PMMAC
	// quarantines the shard, then collect the 503 payloads the frame
	// transport and the single-block route return — the error path most
	// tempted to explain itself with leaves.
	adv, err := mem.DialRemote(mem.RemoteConfig{
		Addr:      bln.Addr().String(),
		Namespace: "store/shard-0000/tree-0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer adv.Close()
	tampered := 0
	for idx := uint64(0); idx < 1<<13; idx++ {
		raw := adversary.Inspect(adv, idx)
		if raw == nil {
			continue
		}
		raw[len(raw)-1] ^= 0xff
		raw[7] ^= 0x01
		if err := adv.Write(idx, raw); err != nil {
			t.Fatal(err)
		}
		tampered++
	}
	if tampered == 0 {
		t.Fatal("nothing to corrupt")
	}
	var tampErr error
	for i := 0; i < 200 && tampErr == nil; i++ {
		if _, err := bc.Get(uint64(i*61) % (1 << 12)); err != nil {
			tampErr = err
		}
	}
	if tampErr == nil {
		t.Fatal("tamper campaign never detected")
	}
	addPayload("binary tamper detection", tampErr.Error())
	_, err = bc.Get(3)
	if ce := client.AsError(err); ce == nil || ce.Status != http.StatusServiceUnavailable {
		t.Fatalf("binary read of quarantined store: want 503, got %v", err)
	}
	addPayload("binary quarantine get", err.Error())
	resp, err = http.Get(hsrv.URL + "/block/3")
	if err != nil {
		t.Fatal(err)
	}
	quarBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("GET /block/3 of quarantined store = %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	addPayload("http quarantine body", string(quarBody))

	// Operator surfaces, captured after quarantine so /shards carries a
	// populated cause field.
	fetch := func(path string) string {
		resp, err := http.Get(hsrv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(b)
	}
	metricsText := fetch("/metrics")
	shardsJSON := fetch("/shards")
	statsJSON := fetch("/stats")

	// Snapshot the wiretap. Every index >= secretFloor is a deep-path
	// position the adversary saw; none may appear downstream. Public
	// configuration the client must know anyway — the address-space
	// capacity and its powers-of-two neighborhood — can collide with an
	// index by arithmetic accident (range errors print the bound), so
	// those exact values are carved out.
	public := map[uint64]bool{
		st.Blocks():             true,
		uint64(st.BlockBytes()): true,
	}
	traceMu.Lock()
	secrets := make(map[uint64]bool)
	maxIdx := uint64(0)
	for idx := range observed {
		if idx >= secretFloor && !public[idx] {
			secrets[idx] = true
		}
		if idx > maxIdx {
			maxIdx = idx
		}
	}
	total := len(observed)
	traceMu.Unlock()
	if total == 0 {
		t.Fatal("wiretap observed nothing; Trace hook dead")
	}
	if len(secrets) == 0 {
		t.Fatalf("wiretap observed %d indices but none >= %d (max %d); secretFloor does not fit this geometry",
			total, secretFloor, maxIdx)
	}
	t.Logf("%s: wiretap observed %d distinct indices, %d above the floor", backendKind, total, len(secrets))

	// scanTokens flags any decimal token in text that matches an observed
	// deep-path index, or the canary address.
	tokenRe := regexp.MustCompile(`[0-9]+`)
	canaryStr := strconv.FormatUint(canaryAddr, 10)
	scanTokens := func(where, text string) {
		if strings.Contains(text, canaryStr) {
			t.Errorf("%s echoes the canary address %s:\n%s", where, canaryStr, text)
		}
		for _, tok := range tokenRe.FindAllString(text, -1) {
			v, err := strconv.ParseUint(tok, 10, 64)
			if err != nil {
				continue // overflows uint64: not a bucket index
			}
			if secrets[v] {
				t.Errorf("%s contains observed bucket index %d:\n%s", where, v, text)
			}
		}
	}

	// Error payloads: no observed index, no canary, anywhere.
	for _, p := range payloads {
		scanTokens("error payload ("+p.where+")", p.text)
	}

	// /metrics: series names and label values must be clean. Sample values
	// are aggregate counters whose magnitudes can coincide with an index by
	// arithmetic accident, so each line is split at its final space and the
	// value checked only against the canary.
	for _, line := range strings.Split(metricsText, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			cut = len(line)
		}
		scanTokens("/metrics series", line[:cut])
		if strings.Contains(line[cut:], canaryStr) {
			t.Errorf("/metrics value echoes the canary address: %s", line)
		}
	}

	// /shards: the schema's small numeric fields (queue occupancy, op
	// counts) are public by construction; everything else — state, cause,
	// any field the schema grows later — must be clean. Strip the known
	// public numerics, then scan what remains.
	var shardDoc struct {
		Shards []map[string]any `json:"shards"`
	}
	if err := json.Unmarshal([]byte(shardsJSON), &shardDoc); err != nil || len(shardDoc.Shards) == 0 {
		t.Fatalf("/shards shape unexpected (%v):\n%s", err, shardsJSON)
	}
	publicNumeric := regexp.MustCompile(`"(index|queue_len|queue_cap|enqueued|coalesced_reads)"\s*:\s*[0-9]+`)
	scanTokens("/shards", publicNumeric.ReplaceAllString(shardsJSON, ""))

	// /stats: aggregate counters; keys and the canary are the exposure.
	var stats map[string]any
	if err := json.Unmarshal([]byte(statsJSON), &stats); err != nil {
		t.Fatalf("/stats is not a JSON object: %v\n%s", err, statsJSON)
	}
	for k := range stats {
		scanTokens("/stats key", k)
	}
	if strings.Contains(statsJSON, canaryStr) {
		t.Errorf("/stats echoes the canary address:\n%s", statsJSON)
	}
}
