package adversary_test

// Access-pattern statistics over a live bucketd: what a network adversary
// tapping the untrusted bucket server actually observes, for both backend
// constructions. The tree backend's observable is the leaf sequence — it
// must look uniform no matter how skewed the logical workload is. The
// bucket-hash backend's observable is the level-access schedule — how many
// buckets each access touches must be a pure function of the public access
// count, never of the logical addresses.

import (
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"freecursive/internal/backend"
	"freecursive/internal/backend/backendtest"
	"freecursive/internal/bucketd"
	"freecursive/internal/bucketwire"
	"freecursive/internal/core"
	"freecursive/internal/mem"
)

// startBucketd launches an in-process bucket server with a per-bucket
// trace callback and returns its address.
func startBucketd(t *testing.T, trace func(op byte, space, idx uint64)) string {
	t.Helper()
	srv := bucketd.New(bucketd.Config{Trace: trace})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestPathLeafTrafficUniformDespiteSkewedAddresses: a full PIC system over
// remote memory is hammered on FOUR logical addresses; the leaf-level
// bucket traffic the server sees must still be uniform across all leaves
// (chi-square), because every access remaps its block to a fresh uniform
// leaf. A failure here means the position map is leaking the workload's
// skew onto the memory bus.
func TestPathLeafTrafficUniformDespiteSkewedAddresses(t *testing.T) {
	// Count read traffic only: every path access reads and then rewrites
	// the same leaf bucket, so counting both sides would pair up the
	// observations and double the chi-square variance without adding
	// information.
	var mu sync.Mutex
	counts := map[uint64]uint64{}
	addr := startBucketd(t, func(op byte, space, idx uint64) {
		if op != bucketwire.OpReadPath {
			return
		}
		mu.Lock()
		counts[idx]++
		mu.Unlock()
	})

	p := backendtest.SystemParams(core.BackendPath)
	p.MemAddr = addr
	p.MemNamespace = "adversary/stats-path"
	sys, err := core.Build(p)
	if err != nil {
		t.Fatal(err)
	}

	const accesses = 3000
	for i := 0; i < accesses; i++ {
		if _, err := sys.Frontend.Access(uint64(i)%4, true, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	g := sys.Backends[0].(*backend.PathORAM).Geometry()
	// Closing the system flushes and drains the pipelined write-backs, so
	// the tap is complete before it is read.
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	leaves := g.Leaves()
	first := leaves - 1 // heap index of leaf 0
	var total uint64
	obs := make([]uint64, leaves)
	for idx, n := range counts {
		if idx >= first && idx < first+leaves {
			obs[idx-first] += n
			total += n
		}
	}
	if total == 0 {
		t.Fatal("no leaf-level traffic observed")
	}
	exp := float64(total) / float64(leaves)
	chi2 := 0.0
	for _, n := range obs {
		d := float64(n) - exp
		chi2 += d * d / exp
	}
	// Generous critical value for df = leaves-1: far beyond any plausible
	// fluctuation of a uniform source, far below the skew of a leaky one
	// (four hot addresses over 2^L leaves would concentrate the mass).
	df := float64(leaves - 1)
	crit := df + 6*math.Sqrt(2*df)
	if chi2 > crit {
		t.Fatalf("leaf traffic chi-square %.1f exceeds %.1f (df=%v): physical leaf visits mirror the skewed workload", chi2, crit, df)
	}
}

// TestBucketHashScheduleIndependentOfAddresses: two bucket-hash backends
// over the same live server run completely different workloads — disjoint
// address sets, independently drawn leaves — and the per-access bucket I/O
// counts the server observes must match exactly, access for access. The
// level-access schedule (probes per access, rebuild chunks and their
// timing) is driven by the public access count alone.
func TestBucketHashScheduleIndependentOfAddresses(t *testing.T) {
	var kind backendtest.Kind
	for _, k := range backendtest.Kinds() {
		if k.Name == core.BackendBucketHash {
			kind = k
		}
	}
	if kind.New == nil {
		t.Fatal("bucket-hash kind not registered")
	}

	run := func(ns string, addrOf func(i int) uint64, seed uint64) []int {
		var ops atomic.Uint64
		addr := startBucketd(t, func(op byte, space, idx uint64) { ops.Add(1) })
		rem, err := mem.DialRemote(mem.RemoteConfig{Addr: addr, Namespace: ns})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rem.Close() })
		b := kind.New(t, backendtest.Geom(t), backendtest.Options{Encrypted: true, Store: rem})
		g := b.Geometry()

		const accesses = 400
		perAccess := make([]int, 0, accesses)
		for i := 0; i < accesses; i++ {
			lf := (seed*uint64(i)*2654435761 + seed) % g.Leaves()
			req := backend.Request{Op: backend.OpWrite, Addr: addrOf(i), Leaf: lf, NewLeaf: lf, Data: []byte{byte(i)}}
			before := ops.Load()
			if _, err := b.Access(req); err != nil {
				t.Fatal(err)
			}
			rem.Stats() // ordered, untraced round trip: drain pipelined write-backs
			perAccess = append(perAccess, int(ops.Load()-before))
		}
		return perAccess
	}

	hot := run("adversary/stats-bh-hot", func(i int) uint64 { return uint64(i % 8) }, 5)
	cold := run("adversary/stats-bh-cold", func(i int) uint64 { return 100000 + uint64(i)*17 }, 11)
	for i := range hot {
		if hot[i] != cold[i] {
			t.Fatalf("access %d: %d bucket ops under the hot workload, %d under the cold one — the level schedule depends on logical addresses\nhot:  %v\ncold: %v",
				i, hot[i], cold[i], fmt.Sprint(hot[:i+1]), fmt.Sprint(cold[:i+1]))
		}
	}
}
