package store

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"strings"
	"testing"

	"freecursive"
)

// lightCfg keeps unit tests fast: tiny shards and blocks.
func lightCfg(shards int, blocks uint64) Config {
	return Config{
		Shards: shards,
		Blocks: blocks,
		ORAM: freecursive.Config{
			BlockBytes: 16,
			Seed:       7,
		},
	}
}

func val(addr uint64, bb int) []byte {
	b := make([]byte, bb)
	binary.LittleEndian.PutUint64(b, addr^0xABCD)
	return b
}

func TestRounding(t *testing.T) {
	cases := []struct {
		shards        int
		blocks        uint64
		wantShards    int
		wantBlocksMin uint64
	}{
		{0, 0, 8, 1 << 20}, // defaults
		{3, 1000, 4, 1024}, // both round up
		{4, 4096, 4, 4096}, // exact powers stay put
		{5, 100, 8, 128},   // perShard floors at 2
		{1, 2, 1, 2},       // minimum viable
	}
	for _, c := range cases {
		s, err := New(lightCfg(c.shards, c.blocks))
		if err != nil {
			t.Fatalf("New(%d shards, %d blocks): %v", c.shards, c.blocks, err)
		}
		if s.Shards() != c.wantShards {
			t.Errorf("Shards(%d)=%d, want %d", c.shards, s.Shards(), c.wantShards)
		}
		if s.Blocks() < c.wantBlocksMin || s.Blocks()&(s.Blocks()-1) != 0 {
			t.Errorf("Blocks(%d)=%d, want power of two >= %d", c.blocks, s.Blocks(), c.wantBlocksMin)
		}
	}
	if _, err := New(lightCfg(-1, 64)); err == nil {
		t.Error("negative shard count accepted")
	}
}

// TestShardSeedDerivation proves distinct (store seed, shard index) pairs
// get distinct ORAM seeds. The old linear offset (seed += i*0x9E37) made
// shard i of a store seeded s identical to shard i-1 of a store seeded
// s+0x9E37; the SplitMix64 derivation must not reproduce that or any other
// collision across nearby seeds.
func TestShardSeedDerivation(t *testing.T) {
	const shards = 64
	seeds := []uint64{1, 2, 3, 42, 42 + 0x9E37, 42 + 2*0x9E37, 1 << 40, ^uint64(0)}
	seen := make(map[uint64][2]uint64)
	for _, s := range seeds {
		for i := uint64(0); i < shards; i++ {
			d := shardSeed(s, i)
			if d == 0 {
				t.Fatalf("shardSeed(%d, %d) = 0 (reserved for defaults)", s, i)
			}
			if prev, dup := seen[d]; dup {
				t.Fatalf("shardSeed collision: (%d,%d) and (%d,%d) both derive %#x",
					prev[0], prev[1], s, i, d)
			}
			seen[d] = [2]uint64{s, i}
		}
	}
	// The specific regression: the adjacent-seed ladder of the old scheme.
	for i := uint64(1); i < shards; i++ {
		if shardSeed(42+0x9E37, i-1) == shardSeed(42, i) {
			t.Fatalf("shard %d of seed 42 collides with shard %d of seed 42+0x9E37", i, i-1)
		}
	}
}

// TestLocateBijective proves the address partition never maps two store
// addresses onto the same (shard, slot) pair.
func TestLocateBijective(t *testing.T) {
	s, err := New(lightCfg(4, 1<<12))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[[2]uint64]uint64, s.Blocks())
	for addr := uint64(0); addr < s.Blocks(); addr++ {
		si, inner := s.locate(addr)
		if si >= uint64(s.Shards()) || inner >= s.perShard {
			t.Fatalf("locate(%d) = (%d, %d) out of range", addr, si, inner)
		}
		key := [2]uint64{si, inner}
		if prev, dup := seen[key]; dup {
			t.Fatalf("addresses %d and %d both map to shard %d slot %d", prev, addr, si, inner)
		}
		seen[key] = addr
	}
}

// TestLocateBalanced checks that sequential addresses spread across shards
// rather than filling one shard at a time.
func TestLocateBalanced(t *testing.T) {
	s, err := New(lightCfg(8, 1<<12))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]uint64, s.Shards())
	probe := s.Blocks() / 4 // a sequential prefix, the worst case for range partitioning
	for addr := uint64(0); addr < probe; addr++ {
		si, _ := s.locate(addr)
		counts[si]++
	}
	want := probe / uint64(s.Shards())
	for si, n := range counts {
		if n < want/2 || n > want*2 {
			t.Errorf("shard %d got %d of first %d addresses, want ~%d", si, n, probe, want)
		}
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	s, err := New(lightCfg(4, 1<<10))
	if err != nil {
		t.Fatal(err)
	}
	// Unwritten blocks read as zeros.
	got, err := s.Get(17)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, s.BlockBytes())) {
		t.Fatalf("unwritten block = %x, want zeros", got)
	}
	for addr := uint64(0); addr < s.Blocks(); addr += 7 {
		if _, err := s.Put(addr, val(addr, s.BlockBytes())); err != nil {
			t.Fatal(err)
		}
	}
	for addr := uint64(0); addr < s.Blocks(); addr += 7 {
		got, err := s.Get(addr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, val(addr, s.BlockBytes())) {
			t.Fatalf("Get(%d) = %x, want %x", addr, got, val(addr, s.BlockBytes()))
		}
	}
	// Put returns no data: the previous contents are not reported.
	got, err = s.Put(7, val(99, s.BlockBytes()))
	if err != nil || got != nil {
		t.Fatalf("Put(7) = %x, %v; want nil data", got, err)
	}
}

func TestOutOfRange(t *testing.T) {
	s, err := New(lightCfg(2, 64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(s.Blocks()); err == nil {
		t.Error("Get past capacity succeeded")
	}
	if _, err := s.Put(s.Blocks(), nil); err == nil {
		t.Error("Put past capacity succeeded")
	}
}

// TestMemoryConfigRejected: a memory field of the per-shard ORAM config
// would reach every shard unchanged — one page file or one bucketd space
// for all of them — so New refuses it and names the store-level field to
// set instead; page files and a bucketd at once, and a bucketd namespace
// without a bucketd, are refused by core's one check.
func TestMemoryConfigRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config)
		want string
	}{
		{"ORAM.DataDir", func(c *Config) { c.ORAM.DataDir = t.TempDir() }, "set Config.DataDir instead"},
		{"ORAM.MemAddr", func(c *Config) { c.ORAM.MemAddr = "127.0.0.1:1" }, "set Config.MemAddr instead"},
		{"ORAM.MemNamespace", func(c *Config) { c.ORAM.MemNamespace = "ns" }, "set Config.MemNamespace instead"},
		{"DataDir+MemAddr", func(c *Config) { c.DataDir, c.MemAddr = t.TempDir(), "127.0.0.1:1" },
			"core: durable (DataDir) and remote (MemAddr) untrusted memory are mutually exclusive"},
		{"MemNamespace without MemAddr", func(c *Config) { c.MemNamespace = "ns" }, "MemNamespace \"ns/shard-0000\" names a bucketd namespace, but MemAddr is empty"},
		{"MemNamespace+DataDir without MemAddr", func(c *Config) { c.MemNamespace, c.DataDir = "ns", t.TempDir() }, "MemAddr is empty"},
	} {
		cfg := lightCfg(2, 256)
		tc.set(&cfg)
		s, err := New(cfg)
		if err == nil {
			s.Close()
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want it to say %q", tc.name, err, tc.want)
		}
	}
}

func TestBatchMatchesSingle(t *testing.T) {
	s, err := New(lightCfg(4, 1<<10))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 3))
	addrs := make([]uint64, 256)
	vals := make([][]byte, len(addrs))
	for i := range addrs {
		addrs[i] = rng.Uint64() % s.Blocks()
		vals[i] = val(uint64(i), s.BlockBytes())
	}
	if _, err := waitAll(s.SubmitBatch(writes(addrs, vals))); err != nil {
		t.Fatal(err)
	}
	got, err := waitAll(s.SubmitBatch(reads(addrs)))
	if err != nil {
		t.Fatal(err)
	}
	// Later batch entries win for repeated addresses, so compare against
	// the last write to each address.
	last := make(map[uint64]int)
	for i, a := range addrs {
		last[a] = i
	}
	for i, a := range addrs {
		want := vals[last[a]]
		if !bytes.Equal(got[i], want) {
			t.Fatalf("batch read %d (addr %d) = %x, want %x", i, a, got[i], want)
		}
		single, err := s.Get(a)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(single, want) {
			t.Fatalf("Get(%d) = %x disagrees with batch %x", a, single, want)
		}
	}
}

// TestStatsAggregation verifies Stats equals the per-shard sum: counter
// fields and the treetop sizes sum, StashMax and the treetop depth take the
// max, PLBHitRate is access-weighted.
func TestStatsAggregation(t *testing.T) {
	s, err := New(lightCfg(4, 1<<10))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	for i := 0; i < 512; i++ {
		addr := rng.Uint64() % s.Blocks()
		if i%3 == 0 {
			if _, err := s.Put(addr, val(addr, s.BlockBytes())); err != nil {
				t.Fatal(err)
			}
		} else if _, err := s.Get(addr); err != nil {
			t.Fatal(err)
		}
	}
	agg := s.Stats()
	var want freecursive.Stats
	var weighted float64
	perShard := s.ShardStats()
	for _, st := range perShard {
		if st.Accesses == 0 {
			t.Error("a shard served zero accesses; partition is unbalanced")
		}
		want.Accesses += st.Accesses
		want.BackendAccesses += st.BackendAccesses
		want.BytesMoved += st.BytesMoved
		want.PosMapBytes += st.PosMapBytes
		want.GroupRemaps += st.GroupRemaps
		want.MACChecks += st.MACChecks
		want.Violations += st.Violations
		want.StashOverflow += st.StashOverflow
		if st.StashMax > want.StashMax {
			want.StashMax = st.StashMax
		}
		if st.TreetopLevels == 0 || st.TreetopBytes == 0 {
			t.Error("a shard reports no treetop under the default budget")
		}
		want.TreetopBytes += st.TreetopBytes
		want.TreetopLevels = max(want.TreetopLevels, st.TreetopLevels)
		weighted += st.PLBHitRate * float64(st.Accesses)
	}
	want.PLBHitRate = weighted / float64(want.Accesses)
	if agg != want {
		t.Fatalf("Stats() = %+v, want shard-wise aggregate %+v", agg, want)
	}
	if agg.Accesses != 512 {
		t.Fatalf("aggregate Accesses = %d, want 512", agg.Accesses)
	}
}
