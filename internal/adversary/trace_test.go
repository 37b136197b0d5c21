package adversary

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"net"
	"slices"
	"testing"

	"freecursive/internal/backend"
	"freecursive/internal/bucketd"
	"freecursive/internal/crypt"
	"freecursive/internal/mem"
	"freecursive/internal/mem/memtest"
	"freecursive/internal/tree"
)

// tracedORAM builds a PathORAM over the given store with a fixed cipher key
// so that two instances fed the same request stream stay in lockstep. Half
// of its L=6 tree's levels are cached.
func tracedORAM(t *testing.T, st mem.Backend) *backend.PathORAM {
	return tracedORAMTop(t, st, 3)
}

// TreetopBudget (exported for window_test.go, package adversary_test) is the
// backend.Config.TreetopBytes that caches exactly the top
// k levels of g: the size of their plaintext buckets, or negative for none.
func TreetopBudget(g tree.Geometry, k int) int {
	if k <= 0 {
		return -1
	}
	return (1<<k - 1) * (backend.SealedBucketBytes(g) - crypt.SeedBytes)
}

func tracedORAMTop(t *testing.T, st mem.Backend, k int) *backend.PathORAM {
	t.Helper()
	g, err := tree.NewGeometry(6, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	c, err := crypt.NewBucketCipher([]byte("0123456789abcdef"), crypt.SeedGlobal)
	if err != nil {
		t.Fatal(err)
	}
	p, err := backend.NewPathORAM(backend.Config{
		Geometry: g, Store: st, Cipher: c, TreetopBytes: TreetopBudget(g, k),
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBatchedPathSameIndexMultiset is the protocol-equivalence half of the
// obliviousness argument for the remote transport: what the network
// adversary observes from a batched path request must be exactly what the
// per-bucket bus probe observes on local memory. One controller runs over a
// local store wiretapped through the decorator's Trace (once per bucket); its
// twin runs over a live bucketd whose Trace callback is the network tap.
// After every access the two bucket-index multisets must match.
func TestBatchedPathSameIndexMultiset(t *testing.T) {
	// Local reference: in-process bus probe on reads and writes alike.
	busTap := &IndexTrace{}
	stLocal := memtest.Wrap(mem.NewStore())
	stLocal.Trace = func(_ byte, idx uint64) { busTap.Note(idx) }
	local := tracedORAM(t, stLocal)

	// Remote twin: network tap on the untrusted server itself.
	netTap := &IndexTrace{}
	srv := bucketd.New(bucketd.Config{
		Trace: func(op byte, space, idx uint64) { netTap.Note(idx) },
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	rem, err := mem.DialRemote(mem.RemoteConfig{
		Addr: ln.Addr().String(), Namespace: "adversary/multiset",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	remote := tracedORAM(t, rem)

	g := local.Geometry()
	rng := rand.New(rand.NewPCG(11, 7))
	leaf := map[uint64]uint64{}
	for i := 0; i < 150; i++ {
		addr := rng.Uint64() % 48
		cur, ok := leaf[addr]
		if !ok {
			cur = rng.Uint64() % g.Leaves()
		}
		nl := rng.Uint64() % g.Leaves()
		leaf[addr] = nl
		req := backend.Request{Op: backend.OpRead, Addr: addr, Leaf: cur, NewLeaf: nl}
		if rng.IntN(2) == 0 {
			req.Op = backend.OpWrite
			req.Data = make([]byte, g.BlockBytes)
			binary.BigEndian.PutUint64(req.Data, rng.Uint64())
		}
		if _, err := local.Access(req); err != nil {
			t.Fatalf("step %d local: %v", i, err)
		}
		if _, err := remote.Access(req); err != nil {
			t.Fatalf("step %d remote: %v", i, err)
		}

		// The write-back is pipelined, so force it to the server before
		// reading the tap: Stats is an ordered round trip that drains every
		// pending ack and is itself untraced.
		rem.Stats()
		if got, want := fmt.Sprint(netTap.Multiset()), fmt.Sprint(busTap.Multiset()); got != want {
			t.Fatalf("step %d: network multiset %v, bus multiset %v", i, got, want)
		}
		if got, want := len(netTap.Indices()), len(busTap.Indices()); got != want {
			t.Fatalf("step %d: trace lengths diverge: %d vs %d", i, got, want)
		}
		busTap.Reset()
		netTap.Reset()
	}
}

// TestTreetopTraceIsLeafPathSuffix: with the top k levels cached, what the
// bus shows of an access is the rest of its path — indices k..L of the path
// to its leaf, read in order and then written in order — and nothing else.
// That is one function of the leaf for a stream chasing a single address
// down its remaps and for a stream of all-distinct addresses on leaves of
// its own: no index of a cached level ever appears, and nothing the treetop
// held or took in changes a single touch.
func TestTreetopTraceIsLeafPathSuffix(t *testing.T) {
	const n = 400
	for _, k := range []int{0, 3, 6} {
		for _, stream := range []string{"same-address", "uniform"} {
			tap := &IndexTrace{}
			st := memtest.Wrap(mem.NewStore())
			st.Trace = func(_ byte, idx uint64) { tap.Note(idx) }
			p := tracedORAMTop(t, st, k)
			g := p.Geometry()
			rng := rand.New(rand.NewPCG(uint64(len(stream)), 53))
			cur := rng.Uint64() % g.Leaves()
			for i := 0; i < n; i++ {
				req := backend.Request{Op: backend.OpWrite, Addr: 7, Leaf: cur, NewLeaf: rng.Uint64() % g.Leaves(), Data: []byte{byte(i)}}
				if stream == "uniform" {
					req.Addr, req.Leaf = 1000+uint64(i), rng.Uint64()%g.Leaves()
				}
				if _, err := p.Access(req); err != nil {
					t.Fatal(err)
				}
				suffix := g.PathIndices(req.Leaf, nil)[k:]
				if got, want := fmt.Sprint(tap.Indices()), fmt.Sprint(slices.Concat(suffix, suffix)); got != want {
					t.Fatalf("treetop %d, %s access %d to leaf %d: bus saw %s, want %s", k, stream, i, req.Leaf, got, want)
				}
				tap.Reset()
				cur = req.NewLeaf
			}
		}
	}
}
