package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"net"
	"sync"
	"testing"

	"freecursive"
	"freecursive/internal/adversary"
	"freecursive/internal/bucketd"
	"freecursive/internal/bucketwire"
	"freecursive/internal/mem"
)

// startBucketd runs an in-process bucket server on an ephemeral port.
func startBucketd(t *testing.T, cfg bucketd.Config) string {
	t.Helper()
	srv := bucketd.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestRemoteFaultQuarantinesShardNotStore pins the store-level failure
// domain for remote memory: when bucketd injects an I/O fault, the shard
// that hit it fail-stops (ErrQuarantined for its slice of the address
// space) while every other shard keeps serving, and Close still returns —
// a flaky network must degrade the store, never wedge it.
func TestRemoteFaultQuarantinesShardNotStore(t *testing.T) {
	addr := startBucketd(t, bucketd.Config{FailEvery: 1000})
	cfg := lightCfg(4, 1<<8)
	cfg.MemAddr = addr
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Populate well under the injection horizon.
	for a := uint64(0); a < 32; a++ {
		if _, err := s.Put(a, val(a, 16)); err != nil {
			t.Fatalf("populate Put(%d): %v", a, err)
		}
	}

	// Drive reads until the injected fault lands on some shard.
	var faulted uint64
	var ferr error
	for i := 0; i < 5000 && ferr == nil; i++ {
		a := uint64(i) % 32
		if _, err := s.Get(a); err != nil {
			faulted, ferr = a, err
		}
	}
	if ferr == nil {
		t.Fatal("injected fault never surfaced")
	}
	if !errors.Is(ferr, freecursive.ErrStorage) && !errors.Is(ferr, ErrQuarantined) {
		t.Fatalf("fault surfaced as %v, want ErrStorage or ErrQuarantined", ferr)
	}

	// The hit shard is quarantined; the rest are healthy.
	bad := s.ShardOf(faulted)
	if got := s.ShardState(bad); got != StateQuarantined {
		t.Fatalf("shard %d state %v after fault, want quarantined", bad, got)
	}
	var healthy int
	for i := 0; i < s.Shards(); i++ {
		if s.ShardState(i) == StateHealthy {
			healthy++
		}
	}
	if healthy == 0 {
		t.Fatal("every shard quarantined; fault should be contained to one")
	}

	// Its slice of the address space now fail-stops without touching the
	// wire, and the other shards still serve reads.
	var checkedBad, checkedGood bool
	for a := uint64(0); a < 32 && !(checkedBad && checkedGood); a++ {
		if s.ShardOf(a) == bad {
			if _, err := s.Get(a); !errors.Is(err, ErrQuarantined) {
				t.Fatalf("Get(%d) on quarantined shard: %v, want ErrQuarantined", a, err)
			}
			checkedBad = true
			continue
		}
		got, err := s.Get(a)
		if err != nil {
			t.Fatalf("Get(%d) on healthy shard: %v", a, err)
		}
		if !bytes.Equal(got, val(a, 16)) {
			t.Fatalf("Get(%d) = %x, want %x", a, got, val(a, 16))
		}
		checkedGood = true
	}
	if !checkedBad || !checkedGood {
		t.Fatalf("probe incomplete: bad=%v good=%v", checkedBad, checkedGood)
	}
	if err := s.Close(); err != nil && !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Close after quarantine: %v", err)
	}
}

// TestRemoteConcurrentShards hammers a remote-backed store from many
// goroutines. Each shard owns a sticky connection to the same bucketd, so
// this exercises the per-space server locks and the per-shard pipelines
// together; run with -race.
func TestRemoteConcurrentShards(t *testing.T) {
	const (
		workers = 6
		rounds  = 30
	)
	addr := startBucketd(t, bucketd.Config{})
	cfg := lightCfg(4, 1<<9)
	cfg.MemAddr = addr
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 99))
			mine := make(map[uint64][]byte)
			for r := 0; r < rounds; r++ {
				addr := (rng.Uint64()%(s.Blocks()/workers))*workers + uint64(w)
				v := make([]byte, s.BlockBytes())
				binary.LittleEndian.PutUint64(v, uint64(w)<<32|uint64(r))
				if _, err := s.Put(addr, v); err != nil {
					errc <- err
					return
				}
				mine[addr] = v
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
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestRemoteWireIsPathsOnly: whatever reaches bucketd — a 2-shard store's
// Puts and Gets, then an adversary's at-rest inspect and tamper (Read and
// Write) and Stats on one shard's memory — the wiretap sees path reads and
// path writes only. Read and Write travel as one-bucket paths naming the
// bucket they touch; Stats touches no bucket.
func TestRemoteWireIsPathsOnly(t *testing.T) {
	type touch struct {
		op  byte
		idx uint64
	}
	var (
		mu   sync.Mutex
		wire []touch
	)
	tapped := func() []touch {
		mu.Lock()
		defer mu.Unlock()
		return append([]touch(nil), wire...)
	}
	addr := startBucketd(t, bucketd.Config{Trace: func(op byte, _, idx uint64) {
		mu.Lock()
		wire = append(wire, touch{op, idx})
		mu.Unlock()
	}})
	cfg := lightCfg(2, 1<<12)
	cfg.MemAddr = addr
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 1<<12; a += 37 {
		if _, err := s.Put(a, val(a, 16)); err != nil {
			t.Fatalf("Put(%d): %v", a, err)
		}
		if got, err := s.Get(a); err != nil || !bytes.Equal(got, val(a, 16)) {
			t.Fatalf("Get(%d) = %x, %v", a, got, err)
		}
	}
	if err := s.Close(); err != nil { // drains the pipelined write-backs
		t.Fatal(err)
	}
	stored := len(tapped())
	if stored == 0 {
		t.Fatal("the store's accesses reached bucketd untapped")
	}

	m, err := mem.DialRemote(mem.RemoteConfig{Addr: addr, Namespace: "store/shard-0000/tree-0"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var idx uint64
	var raw []byte
	for ; raw == nil && idx < 1<<13; idx++ {
		raw = adversary.Inspect(m, idx)
	}
	if raw == nil {
		t.Fatal("shard 0 has no bucket below its treetop")
	}
	idx--
	if err := m.Write(idx, raw); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Bytes == 0 {
		t.Errorf("Stats reports %+v for a tree with buckets", st)
	}

	all := tapped()
	for i, w := range all {
		if w.op != bucketwire.OpReadPath && w.op != bucketwire.OpWritePath {
			t.Fatalf("wire touch %d: op %d on bucket %d, want only readpath (%d) and writepath (%d)",
				i, w.op, w.idx, bucketwire.OpReadPath, bucketwire.OpWritePath)
		}
	}
	tamper := all[stored:]
	if n := len(tamper); n != int(idx)+2 {
		t.Fatalf("%d touches for %d peeks, a poke and stats, want %d", n, idx+1, idx+2)
	}
	for i, w := range tamper[:idx+1] {
		if w != (touch{bucketwire.OpReadPath, uint64(i)}) {
			t.Fatalf("peek %d reached the wire as %+v", i, w)
		}
	}
	if w := tamper[idx+1]; w != (touch{bucketwire.OpWritePath, idx}) {
		t.Fatalf("poke of bucket %d reached the wire as %+v", idx, w)
	}
}
