package main

import (
	"math/bits"
	"sort"
)

// hist is a streaming log-scale histogram of non-negative int64 samples
// (nanoseconds here). Each power of two is split into 1<<subBits linear
// sub-buckets, so a quantile read back from inside a bucket is within the
// bucket's width, 2^-subBits ≈ 0.8%, of the exact value — no sample is
// retained and a round of any length costs the same 64 KiB.
type hist struct {
	counts [64 << subBits]uint64
	n      uint64
}

const subBits = 7

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v) // exact below the first split octave
	}
	e := bits.Len64(v) - 1 - subBits // v>>e lies in [1<<subBits, 2<<subBits)
	return (e+1)<<subBits | int(v>>uint(e))&(1<<subBits-1)
}

// bucketRange returns the lowest value of bucket b and how many values it spans.
func bucketRange(b int) (lo, width float64) {
	if b < 1<<subBits {
		return float64(b), 1
	}
	e := uint(b>>subBits - 1)
	return float64(uint64(1<<subBits|b&(1<<subBits-1)) << e), float64(uint64(1) << e)
}

func (h *hist) add(v int64) { h.addN(v, 1) }

// addN records n samples of value v (every op of a batch observes the
// batch's latency).
func (h *hist) addN(v int64, n int) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(uint64(v))] += uint64(n)
	h.n += uint64(n)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *hist) reset() { *h = hist{} }

// quantile returns the q-quantile (0 < q <= 1) by the nearest-rank rule,
// placing a bucket's samples evenly over its range, so the value moves with
// the rank inside a bucket instead of jumping between midpoints; 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen uint64
	for b, c := range h.counts {
		if seen+c > rank {
			lo, width := bucketRange(b)
			return lo + width*(float64(rank-seen)+0.5)/float64(c)
		}
		seen += c
	}
	return 0
}

// summary is the median/min/max of one metric over rounds, with the sample
// count, as the measurement protocol reports every timing.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(vals []float64) summary {
	n := len(vals)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return summary{Median: (s[(n-1)/2] + s[n/2]) / 2, Min: s[0], Max: s[n-1], N: n}
}
