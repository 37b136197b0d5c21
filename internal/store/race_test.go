package store

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"sync"
	"testing"
)

// TestConcurrentReadYourWrites hammers the store from many goroutines with
// overlapping address ranges. Each goroutine owns a stripe of addresses
// (only it writes them) and verifies read-your-writes on its stripe, while
// also reading other goroutines' addresses to force cross-shard lock
// contention. Run with -race: the point is that the shard owner goroutines
// make the single-threaded ORAMs safe to share.
func TestConcurrentReadYourWrites(t *testing.T) {
	const (
		workers = 8
		rounds  = 60
	)
	s, err := New(lightCfg(4, 1<<10))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 42))
			mine := make(map[uint64][]byte)
			for r := 0; r < rounds; r++ {
				// Write an owned address: addr ≡ w (mod workers).
				addr := (rng.Uint64()%(s.Blocks()/workers))*workers + uint64(w)
				v := make([]byte, s.BlockBytes())
				binary.LittleEndian.PutUint64(v, uint64(w)<<32|uint64(r))
				if _, err := s.Put(addr, v); err != nil {
					errc <- err
					return
				}
				mine[addr] = v
				// Read back an owned address written earlier.
				for a, want := range mine {
					got, err := s.Get(a)
					if err != nil {
						errc <- err
						return
					}
					if !bytes.Equal(got, want) {
						t.Errorf("worker %d: Get(%d) = %x, want %x", w, a, got, want)
					}
					break
				}
				// Read a foreign address; the value races, the call must not.
				if _, err := s.Get(rng.Uint64() % s.Blocks()); err != nil {
					errc <- err
					return
				}
			}
			// Final sweep: every owned write must still be visible.
			addrs := make([]uint64, 0, len(mine))
			for a := range mine {
				addrs = append(addrs, a)
			}
			got, err := waitAll(s.SubmitBatch(reads(addrs)))
			if err != nil {
				errc <- err
				return
			}
			for i, a := range addrs {
				if !bytes.Equal(got[i], mine[a]) {
					t.Errorf("worker %d: final batch read of %d = %x, want %x", w, a, got[i], mine[a])
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestConcurrentBatches runs overlapping batch operations and Stats calls
// from many goroutines; under -race this exercises the per-shard drain path.
func TestConcurrentBatches(t *testing.T) {
	const workers = 6
	s, err := New(lightCfg(4, 1<<9))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 99))
			for r := 0; r < 20; r++ {
				n := 1 + rng.IntN(32)
				addrs := make([]uint64, n)
				vals := make([][]byte, n)
				for i := range addrs {
					addrs[i] = rng.Uint64() % s.Blocks()
					vals[i] = make([]byte, 8)
					binary.LittleEndian.PutUint64(vals[i], rng.Uint64())
				}
				if _, err := waitAll(s.SubmitBatch(writes(addrs, vals))); err != nil {
					errc <- err
					return
				}
				if _, err := waitAll(s.SubmitBatch(reads(addrs))); err != nil {
					errc <- err
					return
				}
				_ = s.Stats()
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
