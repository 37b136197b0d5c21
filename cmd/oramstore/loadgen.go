package main

// The load generator: a worker harness (runWorkers over the batched network
// client) plus the statistics primitives, extracted from runLoad so their
// distributions are testable. Two bugs lived here historically and the
// structure now rules them out by construction:
//
//   - the write/read coin was (lcgState % 1000) / 1000 — the low bits of
//     an LCG have tiny periods, so the realized write fraction cycled
//     deterministically instead of converging to -writes;
//   - the reservoir slot reused a bit-shift of the same LCG draw that
//     picked the address, so which samples survived correlated with which
//     addresses were hit.
//
// Every worker now owns an independent math/rand/v2 PCG stream, the coin
// is a float draw against the fraction, and the reservoir is textbook
// Algorithm R with its own draw.

import (
	mathrand "math/rand"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"freecursive/client"
)

// --- worker harness ---------------------------------------------------------

// loadOpts shapes one load run, transport-independent.
type loadOpts struct {
	workers   int
	duration  time.Duration
	addrs     uint64 // address range [0, addrs)
	blockB    int
	writeFrac float64
	dist      string // "uniform" | "zipf"
	zipfS     float64
	seed      uint64
}

// loadReport is what a run measures.
type loadReport struct {
	ops           uint64
	opsPerSec     float64
	failures      uint64
	p50, p90, p99 time.Duration
}

// runWorkers hammers c from o.workers goroutines until the deadline,
// sampling per-op latency with per-worker reservoirs. Every op joins the
// client's shared micro-batch collector — batching RELIES on concurrent
// callers — so the server sees batch bursts. Workers draw independent PCG
// streams — one for the write coin and the reservoir, a separate one for
// addresses, so sample retention never correlates with which address a
// request hit.
func runWorkers(c *client.Client, o loadOpts) loadReport {
	var (
		ops      atomic.Uint64
		failures atomic.Uint64
		wg       sync.WaitGroup
		mu       sync.Mutex
		lats     []time.Duration
	)
	payload := make([]byte, o.blockB)
	deadline := time.Now().Add(o.duration)
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := workerRNG(o.seed, w)
			pick := uniformPicker(workerRNG(o.seed+1, w), o.addrs)
			if o.dist == "zipf" {
				pick = zipfPicker(o.seed, w, o.zipfS, o.addrs)
			}
			res := newReservoir(rng)
			for time.Now().Before(deadline) {
				addr := pick()
				start := time.Now()
				var err error
				if pickWrite(rng, o.writeFrac) {
					err = c.Put(addr, payload)
				} else {
					_, err = c.Get(addr)
				}
				res.observe(time.Since(start))
				ops.Add(1)
				if err != nil {
					failures.Add(1)
				}
			}
			mu.Lock()
			lats = append(lats, res.samples...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	rep := loadReport{
		ops:       ops.Load(),
		opsPerSec: float64(ops.Load()) / o.duration.Seconds(),
		failures:  failures.Load(),
	}
	if len(lats) > 0 {
		qs := percentiles(lats, []float64{0.50, 0.90, 0.99})
		rep.p50, rep.p90, rep.p99 = qs[0], qs[1], qs[2]
	}
	return rep
}

// reservoirCap bounds each worker's latency sample. Past it, each new
// sample replaces a random slot with probability cap/seen, giving a
// uniform sample for percentiles in constant memory.
const reservoirCap = 1 << 15

// workerRNG returns worker w's private RNG: a PCG seeded from (seed, w),
// so workers draw independent streams and a run is reproducible.
func workerRNG(seed uint64, w int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(w)*0x9E3779B97F4A7C15+0xD1B54A32D192ED03))
}

// pickWrite is the write/read coin: true with probability writeFrac.
func pickWrite(rng *rand.Rand, writeFrac float64) bool {
	return rng.Float64() < writeFrac
}

// reservoir is Algorithm R (Vitter): a uniform fixed-size sample of an
// unbounded stream.
type reservoir struct {
	rng     *rand.Rand
	seen    uint64
	samples []time.Duration
}

func newReservoir(rng *rand.Rand) *reservoir {
	return &reservoir{rng: rng, samples: make([]time.Duration, 0, 4096)}
}

// observe offers one sample to the reservoir.
func (r *reservoir) observe(d time.Duration) {
	r.seen++
	if len(r.samples) < reservoirCap {
		r.samples = append(r.samples, d)
		return
	}
	if j := r.rng.Uint64N(r.seen); j < reservoirCap {
		r.samples[j] = d
	}
}

// addrPicker yields the next target address for one worker.
type addrPicker func() uint64

// uniformPicker draws addresses uniformly from [0, n).
func uniformPicker(rng *rand.Rand, n uint64) addrPicker {
	return func() uint64 { return rng.Uint64N(n) }
}

// zipfPicker draws addresses Zipf(s)-distributed over [0, n): address 0 is
// the hottest. Workers share the skew but draw independent streams. s must
// be > 1 (the stdlib generator's domain); larger s is more skewed.
func zipfPicker(seed uint64, w int, s float64, n uint64) addrPicker {
	// math/rand/v2 has no Zipf generator; the v1 generator is fine here —
	// it only shapes synthetic load.
	src := mathrand.New(mathrand.NewSource(int64(seed ^ uint64(w+1)*0x9E3779B97F4A7C15)))
	z := mathrand.NewZipf(src, s, 1, n-1)
	return z.Uint64
}

// percentiles returns the given quantiles of lats (nearest-rank on the
// sorted sample). lats is sorted in place.
func percentiles(lats []time.Duration, qs []float64) []time.Duration {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	out := make([]time.Duration, len(qs))
	for i, q := range qs {
		idx := int(q * float64(len(lats)-1))
		out[i] = lats[idx]
	}
	return out
}
