package store

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// reads builds a batch that reads addrs in order.
func reads(addrs []uint64) []Op {
	ops := make([]Op, len(addrs))
	for i, a := range addrs {
		ops[i] = Op{Addr: a}
	}
	return ops
}

// writes builds a batch that writes vals[i] to addrs[i] in order.
func writes(addrs []uint64, vals [][]byte) []Op {
	ops := make([]Op, len(addrs))
	for i, a := range addrs {
		ops[i] = Op{Write: true, Addr: a, Data: vals[i]}
	}
	return ops
}

// waitAll waits on every future and returns their values in order, or the
// first error in order.
func waitAll(futs []*Future) ([][]byte, error) {
	out := make([][]byte, len(futs))
	for i, f := range futs {
		b, err := f.Wait()
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		out[i] = b
	}
	return out, nil
}

// TestBatchMixedOps drives an interleaved get/put batch through one call:
// per-shard FIFO order must make a write visible to the reads queued after
// it, puts must resolve to nil data, and reads before the write must see
// the old value.
func TestBatchMixedOps(t *testing.T) {
	s, err := New(lightCfg(4, 1<<9))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bb := s.BlockBytes()
	v1, v2 := val(1, bb), val(2, bb)
	if _, err := s.Put(5, v1); err != nil {
		t.Fatal(err)
	}

	futs := s.SubmitBatch([]Op{
		{Addr: 5},                        // reads v1
		{Write: true, Addr: 5, Data: v2}, // carries no data
		{Addr: 5},                        // reads v2
		{Write: true, Addr: 9, Data: v1}, // carries no data
		{Addr: 9},                        // reads v1
	})
	want := [][]byte{v1, nil, v2, nil, v1}
	for i, f := range futs {
		got, err := f.Wait()
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("op %d = %x, want %x", i, got, want[i])
		}
	}
}

// TestBatchPartialFailure is the store-layer failure-domain contract: one
// mixed batch spanning a healthy and a quarantined shard fails exactly the
// quarantined shard's operations (with ErrQuarantined) and the out-of-range
// one (with ErrOutOfRange); every other operation completes.
func TestBatchPartialFailure(t *testing.T) {
	s, err := New(lightCfg(2, 1<<8))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bb := s.BlockBytes()

	const victim = 1
	if err := s.Quarantine(victim, nil); err != nil {
		t.Fatal(err)
	}

	// Build a batch that provably spans both shards, mixing ops, plus one
	// invalid address.
	var ops []Op
	var onVictim []bool
	sawVictim, sawHealthy := false, false
	for addr := uint64(0); addr < 64; addr++ {
		ops = append(ops, Op{Write: addr%3 == 0, Addr: addr, Data: val(addr, bb)})
		hit := s.ShardOf(addr) == victim
		onVictim = append(onVictim, hit)
		if hit {
			sawVictim = true
		} else {
			sawHealthy = true
		}
	}
	if !sawVictim || !sawHealthy {
		t.Fatal("batch does not span both shards")
	}
	ops = append(ops, Op{Addr: s.Blocks()})
	onVictim = append(onVictim, false)

	for i, f := range s.SubmitBatch(ops) {
		_, err := f.Wait()
		switch {
		case i == len(ops)-1:
			if !errors.Is(err, ErrOutOfRange) {
				t.Fatalf("out-of-range op err = %v, want ErrOutOfRange", err)
			}
		case onVictim[i]:
			if !errors.Is(err, ErrQuarantined) {
				t.Fatalf("op %d (quarantined shard) err = %v, want ErrQuarantined", i, err)
			}
		default:
			if err != nil {
				t.Fatalf("op %d (healthy shard) failed: %v", i, err)
			}
		}
	}

	// The healthy shard's writes actually landed.
	for addr := uint64(0); addr < 64; addr++ {
		if s.ShardOf(addr) == victim || addr%3 != 0 {
			continue
		}
		got, err := s.Get(addr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, val(addr, bb)) {
			t.Fatalf("Get(%d) = %x after batch, want %x", addr, got, val(addr, bb))
		}
	}
}

// TestSubmitBatchCoalesces: duplicate reads inside one submitted batch
// share physical ORAM accesses when they land in one drain window.
func TestSubmitBatchCoalesces(t *testing.T) {
	s, err := New(lightCfg(1, 64))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Put(3, val(3, s.BlockBytes())); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Accesses

	release := gateShard(t, s.shards[0])
	futs := s.SubmitBatch([]Op{{Addr: 3}, {Addr: 3}, {Addr: 3}, {Addr: 3}})
	release()
	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if got := s.Stats().Accesses - before; got != 1 {
		t.Fatalf("physical accesses = %d, want 1 (3 reads coalesced)", got)
	}
}

// TestBatchEmpty: a zero-length batch is a no-op, not an error.
func TestBatchEmpty(t *testing.T) {
	s, err := New(lightCfg(1, 64))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if futs := s.SubmitBatch(nil); len(futs) != 0 {
		t.Fatalf("SubmitBatch(nil) returned %d futures", len(futs))
	}
}
