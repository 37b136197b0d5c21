package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"path/filepath"
	"sort"
	"testing"

	"freecursive"
)

// streamHash fingerprints the first n ops of every client's stream.
func streamHash(seed uint64, w *workload, n int) uint64 {
	h := fnv.New64a()
	var b [9]byte
	for c := 0; c < w.clients; c++ {
		g := newOpGen(seed, w, c)
		for i := 0; i < n; i++ {
			o := g.next()
			binary.LittleEndian.PutUint64(b[:], o.addr)
			b[8] = 0
			if o.write {
				b[8] = 1
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func TestOpStreamDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b, c := streamHash(1, w, 4096), streamHash(1, w, 4096), streamHash(2, w, 4096)
		if a != b {
			t.Errorf("%s: same seed gave stream hashes %x and %x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same stream hash %x", w.name, a)
		}
	}
}

func TestOpStreamStaysInClass(t *testing.T) {
	for _, w := range workloads {
		for c := 0; c < w.clients; c++ {
			g := newOpGen(7, w, c)
			for i := 0; i < 10000; i++ {
				if o := g.next(); o.addr >= w.blocks || o.addr%uint64(w.clients) != uint64(c) {
					t.Fatalf("%s: client %d drew address %d outside its class", w.name, c, o.addr)
				}
			}
		}
	}
}

func TestHistQuantilesMatchExactSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	var h hist
	exact := make([]float64, 200000)
	for i := range exact {
		v := int64(math.Exp(rng.NormFloat64()*1.5 + 11)) // log-normal around 60 us, heavy tail
		exact[i] = float64(v)
		h.add(v)
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := exact[int(q*float64(len(exact)))]
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%.3f: histogram %.0f, exact %.0f (off by more than 1%%)", q, got, want)
		}
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{Name: "ignored", Start: 0, End: 1000, Parent: -1}, // before the mark
		{Name: "core.access", Start: 0, End: 100, Parent: -1, Req: 1},
		{Name: "backend.access", Start: 10, End: 50, Parent: 1, Req: 1},
		{Name: "mem.readpath", Start: 12, End: 22, Parent: 2, Req: 1},
		{Name: "mem.write", Start: 30, End: 45, Parent: 2, Req: 1}, // merged per-bucket writes
		{Name: "backend.access", Start: 55, End: 95, Parent: 1, Req: 1},
		{Name: "mem.readpath", Start: 60, End: 65, Parent: 5, Req: 1},
	}
	lt := selfTimes(spans, 1)
	for name, want := range map[string][3]int64{ // count, total, self
		"core.access":    {1, 100, 20},
		"backend.access": {2, 80, 50},
		"mem.readpath":   {2, 15, 15},
		"mem.write":      {1, 15, 15},
	} {
		got := lt[name]
		if got == nil || int64(got.count) != want[0] || got.total != want[1] || got.self != want[2] {
			t.Errorf("%s: got %+v, want count/total/self %v", name, got, want)
		}
	}
	if lt["ignored"] != nil {
		t.Error("span before the mark was counted")
	}
	var sum int64
	for _, v := range lt {
		sum += v.self
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}

func TestTracerMergesPerBucketCalls(t *testing.T) {
	tr := newTracer()
	tr.on = true
	tr.push("backend.access")
	for i := 0; i < 5; i++ {
		tr.extend("mem.write", tr.epoch) // each "call" lasts since the epoch: > 0
	}
	tr.pop()
	tr.push("backend.access")
	tr.extend("mem.write", tr.epoch)
	tr.pop()
	if n := len(tr.spans); n != 4 {
		t.Fatalf("%d spans, want 2 parents + 2 merged children", n)
	}
	if tr.spans[1].Parent != 0 || tr.spans[3].Parent != 2 {
		t.Errorf("merged spans have parents %d and %d, want 0 and 2", tr.spans[1].Parent, tr.spans[3].Parent)
	}
}

// TestShadowCatchesWrongValue writes a block behind a client's back and
// checks that the client's next read of it counts as a failed op.
func TestShadowCatchesWrongValue(t *testing.T) {
	w := smokeScale(findWorkload("inproc-path-uniform"))
	s, err := w.build(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	c := newClients(1, w)[0]
	ops := []op{{addr: 4, write: true}, {addr: 4}, {addr: 6}}
	if bad := c.issue(s, ops, nil); bad != 0 {
		t.Fatalf("%d failed ops on an honest store", bad)
	}
	if _, err := s.st.Put(4, []byte("not what the client wrote")); err != nil {
		t.Fatal(err)
	}
	if bad := c.issue(s, ops[1:], nil); bad != 1 {
		t.Errorf("%d failed ops after corrupting block 4, want exactly 1", bad)
	}
}

// TestReplicaParity holds the hand-assembled traced stack to what
// freecursive.New builds from the same configuration, on the same stream.
func TestReplicaParity(t *testing.T) {
	for _, name := range []string{"inproc-path-uniform", "durable-bhoram-writes"} {
		w := findWorkload(name)
		n := w.blocks / uint64(w.shards) / 4 // a quarter shard keeps the test fast; same recursion depth
		cfg := w.storeConfig("", "").ORAM
		cfg.Blocks = n
		cfg.OnChipPosMapBytes /= 4
		cfg.PLBBytes /= 4
		small := *w
		small.onChipBytes, small.plbBytes = cfg.OnChipPosMapBytes, cfg.PLBBytes
		if w.durable {
			cfg.DataDir = t.TempDir()
		}
		ref, err := freecursive.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		tr.on = true
		dir := ""
		if w.durable {
			dir = t.TempDir()
		}
		rep, err := newReplica(&small, n, oramSeed, tr, dir, "")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(9, 9))
		const ops = 6000
		for i := 0; i < ops; i++ {
			o := op{addr: rng.Uint64N(n), write: rng.Float64() < w.writeFrac}
			var data []byte
			if o.write {
				data = make([]byte, blockBytes)
				payload(data, o.addr, uint32(i+1))
			}
			if _, err := ref.System().Frontend.Access(o.addr, o.write, data); err != nil {
				t.Fatal(err)
			}
			for pending := true; pending; { // the replica drains idle quanta too
				if pending, err = ref.Maintain(0); err != nil {
					t.Fatal(err)
				}
			}
			if !rep.do(o) {
				t.Fatalf("%s: replica op %d failed", name, i)
			}
		}
		st := ref.Stats()
		for what, pair := range map[string][2]float64{
			"bytes_moved_per_op":           {float64(st.BytesMoved) / ops, float64(rep.ctr.TotalBytes()) / ops},
			"core.backend_accesses_per_op": {float64(st.BackendAccesses) / ops, float64(rep.ctr.BackendAccesses) / ops},
		} {
			if math.Abs(pair[0]-pair[1])/pair[0] > 0.01 {
				t.Errorf("%s %s: freecursive.New %.3f, replica %.3f", name, what, pair[0], pair[1])
			}
		}
		if lt := selfTimes(tr.spans, 0); lt["core.access"] == nil || lt["backend.access"] == nil || lt["mem.readpath"] == nil {
			t.Errorf("%s: replica recorded no spans for some layer", name)
		}
		rep.close()
		ref.Close()
	}
}

// TestSmoke runs the whole harness at smoke scale, untraced and traced, with
// every check on, and holds its output to BENCHMARK.json.
func TestSmoke(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", specPath))
	if err != nil {
		t.Fatal(err)
	}
	o := smokeOptions(defaultOptions())
	o.outDir = t.TempDir()
	plain, err := runSet(o)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runTraced(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(workloads) || len(traced) != len(workloads) {
		t.Fatalf("got %d and %d results for %d workloads", len(plain), len(traced), len(workloads))
	}
	for i, w := range workloads {
		for _, r := range []*result{plain[i], traced[i]} {
			if r.Workload != w.name || r.Attempted == 0 || r.Failed != 0 {
				t.Errorf("%s: workload %q attempted %d failed %d", w.name, r.Workload, r.Attempted, r.Failed)
			}
		}
		if _, err := driverMetrics(plain[i], spec.EndToEnd); err != nil {
			t.Errorf("%s untraced: %v", w.name, err)
		}
		if _, err := driverMetrics(traced[i], spec.PerLayer); err != nil {
			t.Errorf("%s traced: %v", w.name, err)
		}
		for _, e := range spec.EndToEnd {
			if v := plain[i].get(e.Name); !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, e.Name, v)
			}
		}
	}
}
