package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"freecursive"
	"freecursive/internal/adversary"
	"freecursive/internal/backend"
)

// gateShard blocks a shard's owner goroutine until release is called, so a
// test can deterministically pile requests into one drain window. It
// returns only once the owner is inside the gate: the owner runs a window
// after it has stopped draining the queue into it, so nothing submitted
// from then on can share the gate's window and split the pile in two.
func gateShard(t *testing.T, sh *shard) (release func()) {
	t.Helper()
	entered, ch := make(chan struct{}), make(chan struct{})
	if !sh.control(func(*freecursive.ORAM) { close(entered); <-ch }) {
		t.Fatal("gating a closed shard")
	}
	<-entered
	return func() { close(ch) }
}

// shardAddrs returns store addresses served by shard si, in ascending
// order, up to max of them.
func shardAddrs(s *Store, si, max int) []uint64 {
	var out []uint64
	for addr := uint64(0); addr < s.Blocks() && len(out) < max; addr++ {
		if s.ShardOf(addr) == si {
			out = append(out, addr)
		}
	}
	return out
}

// TestCoalescingWindow drives the exact window semantics: duplicate reads
// queued together share one physical access, and a write between them
// splits the sharing so read-your-writes holds.
func TestCoalescingWindow(t *testing.T) {
	s, err := New(lightCfg(1, 64))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bb := s.BlockBytes()
	addr := uint64(5)
	v1, v2 := val(1, bb), val(2, bb)
	if _, err := s.Put(addr, v1); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Accesses

	// Hold the owner so the whole sequence lands in one drain window:
	// get get put(v2) get get.
	release := gateShard(t, s.shards[0])
	futs := s.SubmitBatch([]Op{
		{Addr: addr},
		{Addr: addr},
		{Write: true, Addr: addr, Data: v2},
		{Addr: addr},
		{Addr: addr},
	})
	release()

	want := [][]byte{v1, v1, nil /* a put carries no data */, v2, v2}
	for i, f := range futs {
		got, err := f.Wait()
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("op %d = %x, want %x", i, got, want[i])
		}
	}
	// 5 requests, but only 3 physical ORAM accesses: read, write, read.
	if got := s.Stats().Accesses - before; got != 3 {
		t.Fatalf("physical accesses = %d, want 3 (2 reads coalesced)", got)
	}
	if got := s.ShardInfos()[0].CoalescedReads; got != 2 {
		t.Fatalf("CoalescedReads = %d, want 2", got)
	}
}

// TestCoalescedResultsAreIndependent: waiters fanned out from one physical
// access must not share backing memory.
func TestCoalescedResultsAreIndependent(t *testing.T) {
	s, err := New(lightCfg(1, 64))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Put(3, val(9, s.BlockBytes())); err != nil {
		t.Fatal(err)
	}
	release := gateShard(t, s.shards[0])
	futs := s.SubmitBatch([]Op{{Addr: 3}, {Addr: 3}})
	release()
	b1, err1 := futs[0].Wait()
	b2, err2 := futs[1].Wait()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	b1[0] ^= 0xFF
	if b2[0] == b1[0] {
		t.Fatal("coalesced readers share a buffer")
	}
}

// TestBatchDuplicateAddresses is the regression test for the batch paths
// through coalescing: duplicate gets agree, duplicate puts keep
// later-wins order, and a mixed batch round-trips.
func TestBatchDuplicateAddresses(t *testing.T) {
	s, err := New(lightCfg(4, 1<<9))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bb := s.BlockBytes()

	// Duplicate-heavy put batch: later entries must win.
	addrs := []uint64{7, 7, 19, 7, 19, 300, 7}
	vals := make([][]byte, len(addrs))
	for i := range vals {
		vals[i] = val(uint64(100+i), bb)
	}
	if _, err := waitAll(s.SubmitBatch(writes(addrs, vals))); err != nil {
		t.Fatal(err)
	}
	wantAt := map[uint64][]byte{7: vals[6], 19: vals[4], 300: vals[5]}

	// Duplicate-heavy get batch: every duplicate sees the same final value.
	getAddrs := []uint64{7, 19, 7, 300, 7, 19, 7, 7}
	got, err := waitAll(s.SubmitBatch(reads(getAddrs)))
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range getAddrs {
		if !bytes.Equal(got[i], wantAt[a]) {
			t.Fatalf("batch read %d (addr %d) = %x, want %x", i, a, got[i], wantAt[a])
		}
	}
	// And the blocking path agrees with the batch view.
	for a, want := range wantAt {
		single, err := s.Get(a)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(single, want) {
			t.Fatalf("Get(%d) = %x, want %x", a, single, want)
		}
	}
}

// TestSubmitAPIBasics covers the Future surface: out-of-range fails
// immediately, Wait is idempotent, put futures resolve to nil data.
func TestSubmitAPIBasics(t *testing.T) {
	s, err := New(lightCfg(2, 64))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, f := range s.SubmitBatch([]Op{{Addr: s.Blocks()}, {Write: true, Addr: s.Blocks()}}) {
		if _, err := f.Wait(); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("op %d out of range = %v, want ErrOutOfRange", i, err)
		}
	}
	v := val(1, s.BlockBytes())
	f := s.SubmitBatch([]Op{{Write: true, Addr: 9, Data: v}})[0]
	if got, err := f.Wait(); err != nil || got != nil {
		t.Fatalf("first put = %x, %v; want nil data", got, err)
	}
	g := s.SubmitBatch([]Op{{Addr: 9}})[0]
	for i := 0; i < 3; i++ { // Wait is idempotent
		got, err := g.Wait()
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("wait %d: %x, %v", i, got, err)
		}
	}
}

// TestClosedStore: Close drains, further submits fail with ErrClosed, and
// stats remain readable from the final snapshot.
func TestClosedStore(t *testing.T) {
	s, err := New(lightCfg(2, 64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(1, val(1, s.BlockBytes())); err != nil {
		t.Fatal(err)
	}
	wantAccesses := s.Stats().Accesses
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close = %v, want ErrClosed", err)
	}
	if got := s.Stats().Accesses; got != wantAccesses {
		t.Fatalf("Stats after Close = %d accesses, want %d", got, wantAccesses)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestQuarantineAdmin: an operator fence fails that shard's traffic with
// ErrQuarantined and leaves the rest serving.
func TestQuarantineAdmin(t *testing.T) {
	s, err := New(lightCfg(4, 1<<9))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Quarantine(99, nil); err == nil {
		t.Fatal("out-of-range shard index accepted")
	}
	const victim = 2
	if err := s.Quarantine(victim, nil); err != nil {
		t.Fatal(err)
	}
	if st := s.ShardState(victim); st != StateQuarantined {
		t.Fatalf("state = %v, want quarantined", st)
	}
	for addr := uint64(0); addr < 64; addr++ {
		_, err := s.Get(addr)
		if s.ShardOf(addr) == victim {
			if !errors.Is(err, ErrQuarantined) {
				t.Fatalf("Get(%d) on quarantined shard = %v, want ErrQuarantined", addr, err)
			}
		} else if err != nil {
			t.Fatalf("Get(%d) on healthy shard: %v", addr, err)
		}
	}
	infos := s.ShardInfos()
	for i, info := range infos {
		want := "healthy"
		if i == victim {
			want = "quarantined"
		}
		if info.State != want {
			t.Fatalf("shard %d state %q, want %q", i, info.State, want)
		}
	}
	if infos[victim].Cause == "" {
		t.Fatal("quarantined shard reports no cause")
	}
}

// tamperShard corrupts every materialized bucket of shard si's unified
// tree, on the shard's owner goroutine so the edit is serialized against
// traffic exactly like a §2 adversary flipping DRAM between accesses.
func tamperShard(t *testing.T, s *Store, si int) {
	t.Helper()
	done := make(chan int, 1)
	ok := s.shards[si].control(func(o *freecursive.ORAM) {
		be := o.System().Backends[0].(*backend.PathORAM)
		st := be.Store()
		n := 0
		for idx := uint64(0); idx < be.Geometry().Buckets(); idx++ {
			raw := adversary.Inspect(st, idx)
			if raw == nil {
				continue
			}
			raw[len(raw)-1] ^= 0xff // corrupt the ciphertext body
			raw[7] ^= 0x01          // and nudge the encryption seed
			if st.Write(idx, raw) == nil {
				n++
			}
		}
		done <- n
	})
	if !ok {
		t.Fatal("tampering a closed shard")
	}
	if n := <-done; n == 0 {
		t.Fatal("no buckets materialized to tamper with")
	}
}

// TestIntegrityQuarantineIsolatesShard is the headline failure-domain test:
// PMMAC catches tampering on one shard, that shard latches quarantined,
// and every other shard keeps serving with correct data.
func TestIntegrityQuarantineIsolatesShard(t *testing.T) {
	const victim = 1
	s, err := New(lightCfg(4, 1<<9))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bb := s.BlockBytes()

	written := make(map[uint64][]byte)
	for addr := uint64(0); addr < 256; addr += 3 {
		v := val(addr, bb)
		if _, err := s.Put(addr, v); err != nil {
			t.Fatal(err)
		}
		written[addr] = v
	}

	tamperShard(t, s, victim)

	// Reads on the victim shard must fail with the quarantine error (which
	// still carries ErrIntegrity) — and once one has failed, the state is
	// latched for all that follow.
	var sawIntegrity bool
	for _, addr := range shardAddrs(s, victim, 1<<9) {
		if _, ok := written[addr]; !ok {
			continue
		}
		_, err := s.Get(addr)
		if err == nil {
			continue // block was still in the trusted stash; keep probing
		}
		if !errors.Is(err, ErrQuarantined) || !errors.Is(err, freecursive.ErrIntegrity) {
			t.Fatalf("tampered read error = %v, want ErrQuarantined wrapping ErrIntegrity", err)
		}
		sawIntegrity = true
		break
	}
	if !sawIntegrity {
		t.Fatal("tampering never detected")
	}
	if st := s.ShardState(victim); st != StateQuarantined {
		t.Fatalf("victim state = %v, want quarantined", st)
	}

	// Every other shard still serves every block it holds, with the data
	// intact.
	for addr, want := range written {
		if s.ShardOf(addr) == victim {
			continue
		}
		got, err := s.Get(addr)
		if err != nil {
			t.Fatalf("healthy shard read Get(%d): %v", addr, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Get(%d) = %x, want %x", addr, got, want)
		}
	}

	// The aggregate view still works — including stats served from the
	// quarantined shard's owner goroutine — and equals the per-shard sum.
	per := s.ShardStats()
	agg := Aggregate(per)
	if agg.Violations == 0 {
		t.Fatal("aggregate shows no violations after quarantine")
	}
	var sum uint64
	for _, st := range per {
		sum += st.Violations
	}
	if agg.Violations != sum {
		t.Fatalf("aggregate violations %d != per-shard sum %d", agg.Violations, sum)
	}
}

// TestQuarantineUnderTraffic is the -race stress test: one shard is
// poisoned mid-traffic while workers hammer the whole address space; the
// other shards must keep serving and the stats views must stay coherent.
func TestQuarantineUnderTraffic(t *testing.T) {
	const (
		victim  = 0
		workers = 6
	)
	s, err := New(lightCfg(4, 1<<9))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bb := s.BlockBytes()
	for addr := uint64(0); addr < s.Blocks(); addr += 2 {
		if _, err := s.Put(addr, val(addr, bb)); err != nil {
			t.Fatal(err)
		}
	}

	var (
		wg        sync.WaitGroup
		stop      atomic.Bool
		healthyOK atomic.Uint64
		errc      = make(chan error, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 77))
			for !stop.Load() {
				addr := rng.Uint64() % s.Blocks()
				var err error
				if rng.Uint64()&3 == 0 {
					v := make([]byte, bb)
					binary.LittleEndian.PutUint64(v, rng.Uint64())
					_, err = s.Put(addr, v)
				} else {
					_, err = s.Get(addr)
				}
				if err != nil {
					if s.ShardOf(addr) == victim && errors.Is(err, ErrQuarantined) {
						continue // expected once the victim latches
					}
					errc <- err
					return
				}
				if s.ShardOf(addr) != victim {
					healthyOK.Add(1)
				}
				// Interleave the monitoring views the way an operator would.
				if rng.Uint64()&63 == 0 {
					_ = s.ShardInfos()
					_ = s.Stats()
				}
			}
		}(w)
	}

	tamperShard(t, s, victim)

	// Drive the victim until the violation latches, then let traffic run a
	// little longer against the quarantined state.
	for _, addr := range shardAddrs(s, victim, 1<<9) {
		if s.ShardState(victim) == StateQuarantined {
			break
		}
		_, _ = s.Get(addr)
	}
	if s.ShardState(victim) != StateQuarantined {
		stop.Store(true)
		wg.Wait()
		t.Fatal("victim never quarantined")
	}
	before := healthyOK.Load()
	for _, addr := range shardAddrs(s, victim+1, 32) {
		if _, err := s.Get(addr); err != nil {
			t.Fatalf("healthy shard stalled after quarantine: %v", err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("worker error on healthy shard: %v", err)
	}
	if healthyOK.Load() == before {
		t.Log("note: no healthy-shard ops landed after quarantine (timing)")
	}

	// One consistent snapshot: aggregate == fold(per-shard), per the
	// /stats contract.
	per := s.ShardStats()
	if got, want := Aggregate(per), s.Stats(); got.Violations == 0 || want.Violations == 0 {
		t.Fatalf("violations missing from aggregates: %+v / %+v", got, want)
	}
	agg := Aggregate(per)
	var manual freecursive.Stats
	manual = Aggregate(per[:2])
	manual = Aggregate(append([]freecursive.Stats{manual}, per[2:]...))
	if agg.Accesses != manual.Accesses || agg.Violations != manual.Violations {
		t.Fatalf("Aggregate not a fold: %+v vs %+v", agg, manual)
	}
}
