package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"strings"
	"testing"
	"time"

	"freecursive/internal/adversary"
	"freecursive/internal/backend"
	"freecursive/internal/bucketd"
	"freecursive/internal/crypt"
	"freecursive/internal/mem"
)

// startBucketd runs an in-process bucketd and returns its address.
func startBucketd(t testing.TB, cfg bucketd.Config) (string, *bucketd.Server) {
	t.Helper()
	srv := bucketd.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), srv
}

// windowParams is a PIC system whose PosMap machinery is busy: the on-chip
// PosMap is a handful of entries (real recursion), the PLB holds four of the
// 32 PosMap blocks (many accesses miss, fetch PosMap blocks and evict a
// victim) and the individual counters are 3 bits wide (a group remap on a
// block's eighth access).
func windowParams(memAddr, ns string) Params {
	return Params{
		Scheme: SchemePIC, NBlocks: 1 << 12, DataBytes: 64,
		OnChipBudgetBytes: 64, PLBCapacityBytes: 256, BetaBits: 3,
		Functional: true, EncScheme: crypt.SeedGlobal, Seed: 21,
		MemAddr: memAddr, MemNamespace: ns,
	}
}

// TestRemoteNeedsNamespace: remote trees have no default bucketd namespace
// — the old default named them after Seed, handing the key material to the
// untrusted server — and Build refuses the config before it dials.
func TestRemoteNeedsNamespace(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if sys, err := Build(windowParams(ln.Addr().String(), "")); err == nil {
		sys.Close()
		t.Fatal("Build accepted MemAddr without MemNamespace")
	} else if !strings.Contains(err.Error(), "MemNamespace") {
		t.Fatalf("Build: %v, want the missing MemNamespace named", err)
	}
	// A completed dial would be waiting in the accept queue.
	if err := ln.(*net.TCPListener).SetDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if c, err := ln.Accept(); err == nil {
		c.Close()
		t.Fatal("Build dialled the memory before refusing the config")
	}
}

// splitOf returns sys's frontend as the split-phase frontend it must be
// over remote memory.
func splitOf(t testing.TB, sys *System) *PLBFrontend {
	t.Helper()
	fe := sys.Frontend.(*PLBFrontend)
	if fe.Wake() == nil {
		t.Fatal("PLB frontend over remote memory does not split accesses")
	}
	return fe
}

// TestWindowedFrontendMatchesSerial (search): the same random op stream runs
// through Start and Finish at every window depth, under random interleavings
// of starts and finishes, over remote memory. Every finish returns what the
// flat model — and so the depth-1 run — returns, op for op, although PLB
// misses put synchronous PosMap fetches (each a barrier that completes the
// window) between starts and group remaps rewrite whole groups mid-window.
// The recursion itself is unchanged by the window: every depth performs the
// same PosMap fetches, evictions and group remaps.
func TestWindowedFrontendMatchesSerial(t *testing.T) {
	addr, _ := startBucketd(t, bucketd.Config{})
	const maxDepth, ops = 4, 300
	var serial struct{ remaps, refills, backend uint64 }
	for depth := 1; depth <= maxDepth; depth++ {
		sys, err := Build(windowParams(addr, fmt.Sprintf("core/window-%d", depth)))
		if err != nil {
			t.Fatal(err)
		}
		fe := splitOf(t, sys)
		model := map[uint64][]byte{}
		stream := rand.New(rand.NewPCG(5, 5))                 // the ops: the same at every depth
		sched := rand.New(rand.NewPCG(uint64(depth), 0xface)) // the interleaving
		type started struct {
			addr  uint64
			write bool
			data  []byte
		}
		var flying []started
		finish := func() {
			op := flying[0]
			flying = flying[1:]
			got, err := fe.Finish()
			if err != nil {
				t.Fatalf("depth %d: finish %#x: %v", depth, op.addr, err)
			}
			want := model[op.addr]
			if want == nil {
				want = make([]byte, 64)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("depth %d: addr %#x (write=%v): got %x want %x", depth, op.addr, op.write, got[:4], want[:4])
			}
			if op.write {
				model[op.addr] = op.data
			}
		}
		overlapped := 0
		for i := 0; i < ops; i++ {
			for len(flying) == depth || (len(flying) > 0 && sched.IntN(3) == 0) {
				finish()
			}
			// 48 addresses spread over all 32 PosMap blocks: few enough
			// that a window often holds two accesses to one.
			op := started{addr: stream.Uint64() % 48 * 85, write: stream.IntN(2) == 0}
			if op.write {
				op.data = make([]byte, 64)
				op.data[0], op.data[1] = byte(i), byte(i>>8)
			}
			if len(flying) > 0 {
				overlapped++
			}
			if err := fe.Start(op.addr, op.write, op.data); err != nil {
				t.Fatalf("depth %d: start op %d: %v", depth, i, err)
			}
			flying = append(flying, op)
		}
		for len(flying) > 0 {
			finish()
		}
		c := sys.Counters
		if depth == 1 {
			serial.remaps, serial.refills, serial.backend = c.GroupRemap, c.PLBRefills, c.BackendAccesses
			t.Logf("serial: %d group remaps, %d PLB refills, %d backend accesses", c.GroupRemap, c.PLBRefills, c.BackendAccesses)
			if c.GroupRemap < 10 || c.PLBRefills < ops/4 {
				t.Fatalf("degenerate run: %d group remaps, %d PLB refills", c.GroupRemap, c.PLBRefills)
			}
		} else {
			if overlapped == 0 {
				t.Fatalf("depth %d: no access ever started behind another", depth)
			}
			if c.GroupRemap != serial.remaps || c.PLBRefills != serial.refills || c.BackendAccesses != serial.backend {
				t.Fatalf("depth %d: %d remaps / %d refills / %d backend accesses, serial did %d / %d / %d",
					depth, c.GroupRemap, c.PLBRefills, c.BackendAccesses, serial.remaps, serial.refills, serial.backend)
			}
		}
		if c.Violations != 0 || c.StashOverflow != 0 {
			t.Fatalf("depth %d: %d violations, %d stash overflows", depth, c.Violations, c.StashOverflow)
		}
		if err := sys.Close(); err != nil {
			t.Fatalf("depth %d: close: %v", depth, err)
		}
	}
}

// TestWindowBarriers: a snapshot and a maintenance call complete the window
// first, and the results they completed are still handed out by Finish, in
// order. Access refuses to cut into a window.
func TestWindowBarriers(t *testing.T) {
	addr, _ := startBucketd(t, bucketd.Config{})
	p := windowParams(addr, "core/barriers")
	p.OnChipBudgetBytes, p.PLBCapacityBytes = 0, 0 // defaults: H = 1, every access one data access
	sys, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	fe := splitOf(t, sys)
	be := sys.Backends[0].(*backend.PathORAM)
	for a := uint64(0); a < 3; a++ {
		if err := fe.Start(a, true, []byte{byte(a + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if be.InFlight() != 3 {
		t.Fatalf("%d accesses in the backend's window, want 3", be.InFlight())
	}
	if _, err := fe.Access(9, false, nil); err == nil {
		t.Fatal("Access accepted with started accesses unfinished")
	}
	if _, err := sys.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if be.InFlight() != 0 {
		t.Fatalf("snapshot left %d accesses in flight", be.InFlight())
	}
	if !fe.Ready() {
		t.Fatal("a drained access is not ready")
	}
	for a := uint64(0); a < 3; a++ {
		prev, err := fe.Finish()
		if err != nil || prev[0] != 0 {
			t.Fatalf("finish %d after the barrier: %x, %v", a, prev[:2], err)
		}
	}
	if _, err := fe.Finish(); err == nil {
		t.Fatal("Finish accepted with nothing started")
	}
	for a := uint64(0); a < 3; a++ {
		got, err := fe.Access(a, false, nil)
		if err != nil || got[0] != byte(a+1) {
			t.Fatalf("read back %d: %x, %v", a, got[:2], err)
		}
	}
}

// TestWindowIntegrityViolationFailsStop: PMMAC catches tampering on access i
// while access i+1 is in flight. Access i reports the violation, access i+1
// — and every later one — fails with the same latched error and touches
// memory no more.
func TestWindowIntegrityViolationFailsStop(t *testing.T) {
	addr, srv := startBucketd(t, bucketd.Config{})
	p := windowParams(addr, "core/violation")
	p.OnChipBudgetBytes, p.PLBCapacityBytes = 0, 0
	sys, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	fe := splitOf(t, sys)
	const n = 64
	for a := uint64(0); a < n; a++ {
		if _, err := fe.Access(a, true, []byte{byte(a), 0x5c}); err != nil {
			t.Fatal(err)
		}
	}
	// The adversary, on a connection of its own, garbles every bucket.
	adv, err := mem.DialRemote(mem.RemoteConfig{Addr: addr, Namespace: "core/violation/tree-0"})
	if err != nil {
		t.Fatal(err)
	}
	defer adv.Close()
	be := sys.Backends[0].(*backend.PathORAM)
	adversary.Garbler{}.GarbleAll(adv, be.Geometry().Buckets())
	// settled is bucketd's frame count once it has counted everything the
	// controller sent: frames are counted in order per connection, so a
	// synchronous round trip behind them (itself one frame) flushes them.
	settled := func() uint64 {
		be.Store().Read(0)
		return srv.FramesServed()
	}
	// Blocks still in the stash are out of the adversary's reach; start
	// pairs until one access needs the tree.
	for a := uint64(0); a+1 < n; a += 2 {
		base := settled()
		if err := fe.Start(a, false, nil); err != nil {
			t.Fatal(err)
		}
		if err := fe.Start(a+1, false, nil); err != nil {
			t.Fatal(err)
		}
		_, err1 := fe.Finish()
		_, err2 := fe.Finish()
		if err1 == nil && err2 == nil {
			continue
		}
		if !errors.Is(err2, ErrIntegrity) {
			t.Fatalf("access behind the violation: %v, want ErrIntegrity", err2)
		}
		// Two path reads, the first access's write-back (the backend access
		// completes before PMMAC checks what it returned) and the flushing
		// round trip; no second write-back.
		if got := settled(); err1 != nil && got != base+4 {
			t.Fatalf("%d frames since the pair began, want 4: the access behind the violation still wrote its path back", got-base)
		}
		if err := fe.Start(0, false, nil); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("start after the violation: %v, want ErrIntegrity", err)
		}
		if sys.Violation() == nil {
			t.Fatal("violation not latched")
		}
		// The abandoned access took the answer to its read: nothing is left
		// owed that Close would have to report lost.
		if be.InFlight() != 0 {
			t.Fatalf("%d accesses still in the backend's window", be.InFlight())
		}
		if err := sys.Close(); err != nil {
			t.Fatalf("close after the violation: %v", err)
		}
		return
	}
	t.Fatal("tampering with every bucket went unnoticed")
}
