// Hot-path allocation regression gates. The PR that introduced these made
// the steady-state encrypted access loop (path read, decrypt, stash,
// evict, reseal, write) run in reusable scratch memory: an access went from
// ~145 heap allocations to the low single digits, almost all of which is
// the public API's caller-owned result slice. These tests pin that budget
// with testing.AllocsPerRun so a regression cannot land silently; the
// companion BenchmarkAccessAllocs* benchmarks report the same numbers (plus
// ns/op) under -benchmem.
package freecursive_test

import (
	"testing"

	"math/rand/v2"

	"freecursive"
)

// hotORAM builds a warmed-up encrypted PIC instance: real trees, PMMAC,
// compressed PosMap — the paper's headline configuration and the production
// configuration of the serving layers.
func hotORAM(tb testing.TB, mutate func(*freecursive.Config)) *freecursive.ORAM {
	tb.Helper()
	cfg := freecursive.Config{Blocks: 1 << 12, Seed: 2}
	if mutate != nil {
		mutate(&cfg)
	}
	o, err := freecursive.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { o.Close() })
	buf := make([]byte, o.BlockBytes())
	// Warm-up: touch the whole address space so buckets materialize, the
	// PLB fills, and every free list reaches steady state.
	for i := uint64(0); i < 2*o.Blocks(); i++ {
		if _, err := o.Write(i%o.Blocks(), buf); err != nil {
			tb.Fatal(err)
		}
	}
	return o
}

// allocBudget is the per-access allocation ceiling for the steady-state
// loop. The real budget is ~2: the caller-owned result slice the public API
// contract requires, plus amortized noise (rare map growth, a cold bucket).
// Anything above this means scratch reuse broke somewhere in the stack.
const allocBudget = 4.0

func TestAccessAllocsPLBHit(t *testing.T) {
	o := hotORAM(t, nil)
	buf := make([]byte, o.BlockBytes())
	// Hammering one address keeps every PosMap lookup in the PLB: this is
	// the pure hit path.
	if _, err := o.Write(42, buf); err != nil {
		t.Fatal(err)
	}
	i := 0
	n := testing.AllocsPerRun(300, func() {
		i++
		if i%2 == 0 {
			if _, err := o.Write(42, buf); err != nil {
				t.Fatal(err)
			}
		} else if _, err := o.Read(42); err != nil {
			t.Fatal(err)
		}
	})
	if n > allocBudget {
		t.Fatalf("PLB-hit access allocates %.2f/op, budget %.1f", n, allocBudget)
	}
}

func TestAccessAllocsPLBMiss(t *testing.T) {
	o := hotORAM(t, nil)
	buf := make([]byte, o.BlockBytes())
	// A large stride defeats the PLB's spatial locality, forcing PosMap
	// block fetches (and PLB victim evictions) on most accesses: the miss
	// path, where PMMAC verification and PLB refill buffers do real work.
	addr := uint64(0)
	i := 0
	n := testing.AllocsPerRun(300, func() {
		addr = (addr + 257) % o.Blocks()
		i++
		if i%2 == 0 {
			if _, err := o.Write(addr, buf); err != nil {
				t.Fatal(err)
			}
		} else if _, err := o.Read(addr); err != nil {
			t.Fatal(err)
		}
	})
	if n > allocBudget {
		t.Fatalf("PLB-miss access allocates %.2f/op, budget %.1f", n, allocBudget)
	}
}

// TestAccessAllocsFileStore runs the same gate over the durable page-file
// backend: the file store's I/O buffers are reused just like the map
// store's bucket buffers.
func TestAccessAllocsFileStore(t *testing.T) {
	o := hotORAM(t, func(cfg *freecursive.Config) { cfg.DataDir = t.TempDir() })
	buf := make([]byte, o.BlockBytes())
	rng := rand.New(rand.NewPCG(5, 6))
	i := 0
	n := testing.AllocsPerRun(300, func() {
		addr := rng.Uint64() % o.Blocks()
		i++
		if i%2 == 0 {
			if _, err := o.Write(addr, buf); err != nil {
				t.Fatal(err)
			}
		} else if _, err := o.Read(addr); err != nil {
			t.Fatal(err)
		}
	})
	if n > allocBudget {
		t.Fatalf("file-store access allocates %.2f/op, budget %.1f", n, allocBudget)
	}
}
