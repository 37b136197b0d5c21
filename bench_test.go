// Benchmarks regenerating every table and figure of the paper (§7). Each
// BenchmarkFigure*/BenchmarkTable* runs the corresponding experiment at
// reduced scale and prints the resulting table once (go test -bench=. -v to
// see them); key scalars are attached as custom benchmark metrics so
// regressions are visible in -bench output alone.
//
// Micro-benchmarks (BenchmarkAccess*) measure the simulator itself: the
// cost of one PIC access, and the parallel throughput of the sharded store
// (BenchmarkStoreParallel*). The ablation points' access cost is measured
// in internal/core, where they are built.
package freecursive_test

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"testing"

	"freecursive"
	"freecursive/internal/exp"
	"freecursive/internal/store"
)

// printOnce avoids spamming the table when the harness re-runs a benchmark
// to calibrate b.N.
var printOnce sync.Map

func emit(b *testing.B, t *exp.Table) {
	if _, dup := printOnce.LoadOrStore(t.ID+b.Name(), true); !dup {
		fmt.Println(t.String())
	}
}

// cell parses a formatted numeric cell ("1.43", "61.8%") back to float64.
func cell(t *exp.Table, row, col int) float64 {
	s := t.Rows[row][col]
	if n := len(s); n > 0 && s[n-1] == '%' {
		s = s[:n-1]
	}
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// BenchmarkFigure3 regenerates the recursion-overhead sweep (analytic).
func BenchmarkFigure3(b *testing.B) {
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		t = exp.Figure3()
	}
	emit(b, t)
	b.ReportMetric(cell(t, 2, 1), "%posmap_b64pm8_4GB")
}

// BenchmarkTable2 regenerates ORAM latency vs channel count.
func BenchmarkTable2(b *testing.B) {
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = exp.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, t)
	b.ReportMetric(cell(t, 1, 1), "cycles_2ch")
}

// BenchmarkFigure5 regenerates the PLB capacity sweep.
func BenchmarkFigure5(b *testing.B) {
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = exp.Figure5(exp.QuickScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, t)
	// mcf at 128 KB, normalized runtime (lower is better; paper 0.51).
	b.ReportMetric(cell(t, 7, 4), "mcf_128K_norm")
}

// BenchmarkFigure5Assoc regenerates the associativity ablation.
func BenchmarkFigure5Assoc(b *testing.B) {
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = exp.Figure5Assoc(exp.QuickScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, t)
}

// BenchmarkFigure6 regenerates the main result (scheme composition).
func BenchmarkFigure6(b *testing.B) {
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = exp.Figure6(exp.QuickScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, t)
	// Paper: 1.43x PC over R; 1.07x PIC over PC.
	b.ReportMetric(cell(t, 12, 1), "speedup_PC_over_R")
	b.ReportMetric(cell(t, 13, 1), "overhead_PIC_over_PC")
}

// BenchmarkFigure7 regenerates the capacity-scaling study.
func BenchmarkFigure7(b *testing.B) {
	sc := exp.Scale{Warmup: 20_000, Ops: 30_000}
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = exp.Figure7(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, t)
}

// BenchmarkFigure8 regenerates the comparison with [26].
func BenchmarkFigure8(b *testing.B) {
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = exp.Figure8(exp.QuickScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, t)
	b.ReportMetric(cell(t, 12, 1), "speedup_PCX64_over_R")
}

// BenchmarkFigure9 regenerates the Phantom comparison.
func BenchmarkFigure9(b *testing.B) {
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = exp.Figure9(exp.QuickScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, t)
}

// BenchmarkTable3 regenerates the area breakdown.
func BenchmarkTable3(b *testing.B) {
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		t = exp.Table3()
	}
	emit(b, t)
	emit(b, exp.Table3Alt())
}

// BenchmarkHashBandwidth regenerates the §6.3 PMMAC-vs-Merkle headline.
func BenchmarkHashBandwidth(b *testing.B) {
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = exp.HashBandwidth(500)
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, t)
}

// BenchmarkCompression regenerates the §5.3 compressed-PosMap analysis.
func BenchmarkCompression(b *testing.B) {
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = exp.Compression(1 << 15)
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, t)
}

// BenchmarkTheory54 evaluates the §5.4 asymptotic construction at concrete
// parameters.
func BenchmarkTheory54(b *testing.B) {
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = exp.Theory54(4 << 30)
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, t)
}

// --- simulator micro-benchmarks ---------------------------------------------

// BenchmarkAccessPICFunctional measures one encrypted PIC access at 2^16
// blocks, half of them writes.
func BenchmarkAccessPICFunctional(b *testing.B) {
	o, err := freecursive.New(freecursive.Config{Blocks: 1 << 16, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	buf := make([]byte, o.BlockBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := rng.Uint64() % o.Blocks()
		if i%2 == 0 {
			if _, err := o.Write(addr, buf); err != nil {
				b.Fatal(err)
			}
		} else if _, err := o.Read(addr); err != nil {
			b.Fatal(err)
		}
	}
}

// --- untrusted-memory backend comparison -------------------------------------

// benchMemBackend measures full PIC accesses with the untrusted bucket
// store on different media, so the cost of durability is measured rather
// than guessed: the in-process map is the floor, the page file pays a
// copy into or out of its mapping per bucket.
func benchMemBackend(b *testing.B, mutate func(*freecursive.Config)) {
	cfg := freecursive.Config{Blocks: 1 << 12, Seed: 2}
	mutate(&cfg)
	o, err := freecursive.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer o.Close()
	rng := rand.New(rand.NewPCG(9, 9))
	buf := make([]byte, o.BlockBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := rng.Uint64() % o.Blocks()
		if i%2 == 0 {
			if _, err := o.Write(addr, buf); err != nil {
				b.Fatal(err)
			}
		} else if _, err := o.Read(addr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemBackendMap(b *testing.B) {
	benchMemBackend(b, func(*freecursive.Config) {})
}

func BenchmarkMemBackendFile(b *testing.B) {
	benchMemBackend(b, func(cfg *freecursive.Config) { cfg.DataDir = b.TempDir() })
}

// --- hot-path allocation trajectory ------------------------------------------

// benchAccessAllocs measures the steady-state encrypted PIC access with
// allocation reporting (run with -benchmem): the allocs/op + ns/op of the
// hottest loop in the system. The warm-up mirrors hotpath_test.go, whose
// AllocsPerRun tests are the gate: buckets materialized, PLB full, free
// lists populated.
func benchAccessAllocs(b *testing.B, mutate func(*freecursive.Config)) {
	cfg := freecursive.Config{Blocks: 1 << 12, Seed: 2}
	if mutate != nil {
		mutate(&cfg)
	}
	o, err := freecursive.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer o.Close()
	buf := make([]byte, o.BlockBytes())
	for i := uint64(0); i < 2*o.Blocks(); i++ {
		if _, err := o.Write(i%o.Blocks(), buf); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewPCG(9, 9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := rng.Uint64() % o.Blocks()
		if i%2 == 0 {
			if _, err := o.Write(addr, buf); err != nil {
				b.Fatal(err)
			}
		} else if _, err := o.Read(addr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccessAllocsMap(b *testing.B) { benchAccessAllocs(b, nil) }

func BenchmarkAccessAllocsFile(b *testing.B) {
	benchAccessAllocs(b, func(cfg *freecursive.Config) { cfg.DataDir = b.TempDir() })
}

// --- sharded-store throughput -----------------------------------------------

// benchStoreParallel measures aggregate Get/Put throughput through
// internal/store with GOMAXPROCS goroutines. Because each shard serializes
// on its own owner goroutine, throughput should rise with the shard count;
// the 1-shard run is the fully-serialized baseline.
func benchStoreParallel(b *testing.B, shards int) {
	s, err := store.New(store.Config{
		Shards: shards,
		Blocks: 1 << 16,
		ORAM:   freecursive.Config{Seed: 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, s.BlockBytes())
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(rand.Uint64(), 11))
		for pb.Next() {
			addr := rng.Uint64() % s.Blocks()
			if rng.Uint64()&1 == 0 {
				if _, err := s.Put(addr, buf); err != nil {
					b.Fatal(err)
				}
			} else if _, err := s.Get(addr); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkStoreParallelFunctional1(b *testing.B)  { benchStoreParallel(b, 1) }
func BenchmarkStoreParallelFunctional4(b *testing.B)  { benchStoreParallel(b, 4) }
func BenchmarkStoreParallelFunctional16(b *testing.B) { benchStoreParallel(b, 16) }
