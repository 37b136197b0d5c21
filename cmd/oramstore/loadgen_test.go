package main

import (
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"freecursive"
	"freecursive/client"
	"freecursive/internal/frameserver"
	"freecursive/internal/httpapi"
	"freecursive/internal/store"
)

// TestWriteFractionConverges is the regression test for the LCG coin bug:
// over 10k ops the realized write fraction must sit within 2% (absolute)
// of the requested one, for every worker stream. The old
// (state%1000)/1000 coin cycled deterministically and failed this badly
// for some fractions.
func TestWriteFractionConverges(t *testing.T) {
	const ops = 10_000
	for _, frac := range []float64{0.05, 0.25, 0.5, 0.75, 0.9} {
		for w := 0; w < 4; w++ {
			rng := workerRNG(1, w)
			writes := 0
			for i := 0; i < ops; i++ {
				if pickWrite(rng, frac) {
					writes++
				}
			}
			got := float64(writes) / ops
			if math.Abs(got-frac) > 0.02 {
				t.Errorf("worker %d, -writes %.2f: realized %.4f (off by %.4f)",
					w, frac, got, math.Abs(got-frac))
			}
		}
	}
}

// TestWorkerStreamsIndependent: distinct workers must not replay each
// other's decisions (the old scheme seeded every worker from the same LCG
// family with correlated low bits).
func TestWorkerStreamsIndependent(t *testing.T) {
	a, b := workerRNG(1, 0), workerRNG(1, 1)
	same := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("worker streams collide on %d/%d draws", same, n)
	}
}

// TestReservoirUniform: Algorithm R must keep a uniform sample — feeding a
// monotone stream, the retained sample's mean must sit near the stream's
// midpoint, and early items must not be over-retained (the old code reused
// the address draw, biasing retention).
func TestReservoirUniform(t *testing.T) {
	rng := workerRNG(7, 0)
	r := newReservoir(rng)
	const n = 4 * reservoirCap
	for i := 0; i < n; i++ {
		r.observe(time.Duration(i))
	}
	if len(r.samples) != reservoirCap {
		t.Fatalf("reservoir holds %d, want %d", len(r.samples), reservoirCap)
	}
	var sum float64
	for _, d := range r.samples {
		sum += float64(d)
	}
	mean := sum / float64(len(r.samples))
	mid := float64(n-1) / 2
	// Std error of the mean of reservoirCap uniform draws over [0,n) is
	// ~ n/sqrt(12*cap) ≈ 0.16% of n; 2% is a >10-sigma gate.
	if math.Abs(mean-mid) > 0.02*float64(n) {
		t.Fatalf("reservoir mean %.0f, want ~%.0f: sampling is biased", mean, mid)
	}
}

// TestZipfPickerSkew: the zipf mode must actually be skewed (hottest
// address dominates) while staying in range — that skew is what makes the
// pipeline's duplicate-read coalescing observable in benchmarks.
func TestZipfPickerSkew(t *testing.T) {
	const n = 1 << 10
	const draws = 20_000
	pick := zipfPicker(3, 0, 1.2, n)
	counts := make(map[uint64]int)
	for i := 0; i < draws; i++ {
		a := pick()
		if a >= n {
			t.Fatalf("zipf address %d out of range [0, %d)", a, n)
		}
		counts[a]++
	}
	hottest := 0
	for _, c := range counts {
		if c > hottest {
			hottest = c
		}
	}
	uniformExpect := float64(draws) / n
	if float64(hottest) < 20*uniformExpect {
		t.Fatalf("hottest address drew %d times (uniform expectation %.1f); not skewed",
			hottest, uniformExpect)
	}
	// And distinct workers draw from the same distribution but different
	// streams.
	other := zipfPicker(3, 1, 1.2, n)
	diff := false
	for i := 0; i < 64 && !diff; i++ {
		diff = pick() != other()
	}
	if !diff {
		t.Fatal("zipf workers replay the same stream")
	}
}

// TestPercentiles pins the nearest-rank behavior runLoad reports.
func TestPercentiles(t *testing.T) {
	lats := make([]time.Duration, 100)
	for i := range lats {
		lats[99-i] = time.Duration(i+1) * time.Millisecond // reverse order on purpose
	}
	got := percentiles(lats, []float64{0.50, 0.90, 0.99})
	want := []time.Duration{50 * time.Millisecond, 90 * time.Millisecond, 99 * time.Millisecond}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("q%d = %v, want %v", i, got[i], want[i])
		}
	}
}

// serve starts one store behind both listeners, the way `oramstore` wires
// them: a loopback frame listener and the production HTTP handler, with
// the frame server as a /metrics source.
func serve(t *testing.T, cfg store.Config) (httpURL, frameAddr string) {
	t.Helper()
	st, err := store.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	fsrv := frameserver.New(st)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fsrv.Serve(ln)
	t.Cleanup(func() { fsrv.Close() })
	srv := httptest.NewServer(httpapi.New(st, fsrv))
	t.Cleanup(srv.Close)
	return srv.URL, ln.Addr().String()
}

func newTestClient(t *testing.T, frameAddr string, maxBatch int) *client.Client {
	t.Helper()
	c, err := client.New(client.Config{Transport: client.Binary(frameAddr), MaxBatch: maxBatch, FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestRunWorkersNetworkBatch drives the harness through the batched client
// against the production frame server — the load probe end to end.
func TestRunWorkersNetworkBatch(t *testing.T) {
	_, frameAddr := serve(t, store.Config{
		Shards: 2,
		Blocks: 1 << 8,
		ORAM:   freecursive.Config{BlockBytes: 16, Seed: 2},
	})
	rep := runWorkers(newTestClient(t, frameAddr, 4), loadOpts{
		workers:   4,
		duration:  150 * time.Millisecond,
		addrs:     1 << 8,
		blockB:    16,
		writeFrac: 0.3,
		dist:      "zipf",
		zipfS:     1.2,
		seed:      3,
	})
	if rep.ops == 0 {
		t.Fatal("harness completed zero ops over the wire")
	}
	if rep.failures != 0 {
		t.Fatalf("%d/%d batched network ops failed", rep.failures, rep.ops)
	}
	if rep.p50 <= 0 || rep.p99 < rep.p50 {
		t.Fatalf("implausible percentiles: p50=%v p99=%v", rep.p50, rep.p99)
	}
}

// TestMetricsCountBinaryBatches: a binary batch shows up in the HTTP
// listener's /metrics under the frame server's transport label, next to
// the core access and coalescing series, and no other transport row is
// rendered.
func TestMetricsCountBinaryBatches(t *testing.T) {
	httpURL, frameAddr := serve(t, store.Config{
		Shards: 2,
		Blocks: 1 << 8,
		ORAM:   freecursive.Config{BlockBytes: 16, Seed: 2},
	})
	results, err := newTestClient(t, frameAddr, 4).Do([]client.BatchOp{
		{Op: client.OpPut, Addr: 3, Data: []byte("x")},
		{Op: client.OpGet, Addr: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Status/100 != 2 {
			t.Fatalf("op %d: status %d (%s)", i, r.Status, r.Error)
		}
	}
	resp, err := http.Get(httpURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	for _, want := range []string{
		`(?m)^oramstore_transport_batches_total\{transport="binary"\} [1-9]`,
		`(?m)^oramstore_accesses_total [1-9]`,
		`(?m)^oramstore_shard_coalesced_reads_total\{`,
	} {
		if !regexp.MustCompile(want).Match(body) {
			t.Errorf("/metrics has no line matching %s", want)
		}
	}
	if rows := regexp.MustCompile(`(?m)^oramstore_transport_batches_total\{`).FindAll(body, -1); len(rows) != 1 {
		t.Errorf("/metrics renders %d transport rows, want the binary one only", len(rows))
	}
}
