package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"freecursive"
	"freecursive/client"
	"freecursive/internal/bucketd"
	"freecursive/internal/frameserver"
	"freecursive/internal/store"
)

// workload is one benchmark traffic mix and the stack it drives. All four
// run PIC with 64-byte blocks; the sizes are constants, chosen so that one
// invocation (five set-ups, warm-up and the measured seconds) fits the
// per-run share of the driver's time cap on two cores. BENCHMARK.json
// records why each exists.
type workload struct {
	name      string
	blocks    uint64
	shards    int
	clients   int     // closed-loop client goroutines (<= nproc)
	procs     int     // GOMAXPROCS while this workload sets up and runs
	batch     int     // ops per client call; 1 issues single ops
	writeFrac float64 // share of ops that are writes
	zipfS     float64 // Zipf exponent; 0 draws addresses uniformly
	roundOps  int     // ops per measured round, all clients together
	prefill   uint64  // blocks written once during set-up (lowest addresses)

	plbBytes    int // PLB size; 0 takes the 64 KiB default
	onChipBytes int // on-chip PosMap budget; 0 takes the 128 KiB default

	network       bool          // binary client -> loopback -> frameserver
	backend       string        // "path" | "bhoram"
	rtt           time.Duration // > 0: buckets live in a bucketd with this RTT
	durable       bool          // buckets live in page files under a fresh dir
	snapshotEvery int           // > 0: Store.Snapshot() every this many ops
}

// The four workloads. Names are cited verbatim by later issues.
var workloads = []*workload{
	{
		// CPU-bound ORAM core. The paper's defaults (64 KiB PLB, 128 KiB
		// on-chip PosMap) are sized for 2^20+ blocks; here both are halved
		// thrice with the capacity so the regime is the same: each shard's
		// 2^14 blocks need one level of recursion (512 PosMap blocks,
		// 32 KiB) and that PosMap is 4x the PLB, so recursion, path
		// read/evict/write and crypt do nearly all the work.
		name: "inproc-path-uniform", blocks: 1 << 15, shards: 2, clients: 2, procs: 1, batch: 1,
		writeFrac: 0.5, roundOps: 12288, prefill: 1 << 15, backend: "path",
		plbBytes: 8 << 10, onChipBytes: 64 << 10,
	},
	{
		// Transport-bound: same ORAM as above, but the Zipf hot set fits the
		// PLB and duplicate reads coalesce, so the ORAM does little per op
		// and client/frame/frameserver/store queueing dominate.
		name: "serve-binary-zipf", blocks: 1 << 15, shards: 2, clients: 2, procs: 1, batch: 16,
		writeFrac: 0.1, zipfS: 1.2, roundOps: 32768, prefill: 1 << 15, backend: "path",
		plbBytes: 8 << 10, onChipBytes: 64 << 10, network: true,
	},
	{
		// Deployment shape: every access pays a 10 ms round trip to
		// untrusted memory. Prefill is a fixed 256 puts, because a full
		// one would take minutes at ~140 ops/s.
		name: "deploy-remote-rtt10", blocks: 1 << 12, shards: 2, clients: 2, procs: 2, batch: 1,
		writeFrac: 0.5, roundOps: 160, prefill: 256, backend: "path",
		network: true, rtt: 10 * time.Millisecond,
	},
	{
		// Second backend, file memory, background rebuilds, snapshots. One
		// round is exactly one cycle of the rebuild schedule (cache
		// capacity 200 x 2^8 levels = 51200 accesses, one backend access per
		// op at this size), so every round does the same rebuild work.
		name: "durable-bhoram-writes", blocks: 1 << 14, shards: 1, clients: 1, procs: 1, batch: 1,
		writeFrac: 0.9, roundOps: 51200, prefill: 1 << 14, backend: "bhoram",
		durable: true, snapshotEvery: 25600,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// stack is one built instance of a workload's serving stack.
type stack struct {
	w       *workload
	st      *store.Store
	cl      *client.Client      // nil for in-process workloads
	fs      *frameserver.Server // nil for in-process workloads
	bd      *bucketd.Server     // nil unless remote
	dir     string              // data dir when durable
	memAddr string              // bucketd address when remote

	tr      *tracer // nil unless this is a traced run
	direct  bool    // drive s.st directly even when a client exists (traced store stage)
	closers []func() error
}

// oramSeed seeds every ORAM the benchmark builds. It is a constant: -seed
// varies the inputs, not the program.
const oramSeed = 1

func (w *workload) storeConfig(dir, memAddr string) store.Config {
	return store.Config{
		Shards:  w.shards,
		Blocks:  w.blocks,
		DataDir: dir,
		MemAddr: memAddr,
		ORAM: freecursive.Config{
			Scheme: freecursive.PIC, Backend: w.backend, BlockBytes: blockBytes, Seed: oramSeed,
			PLBBytes: w.plbBytes, OnChipPosMapBytes: w.onChipBytes,
		},
	}
}

// serve runs srv on a fresh loopback listener and returns its address.
// The returned wait blocks until Serve has returned.
func serve(srv interface{ Serve(net.Listener) error }) (addr string, wait func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return ln.Addr().String(), func() error { return <-done }, nil
}

// build constructs the stack, bottom up. tmpRoot hosts the data dir of the
// durable workload; tr, if non-nil, gets spans from a decorated transport.
func (w *workload) build(tmpRoot string, tr *tracer) (_ *stack, err error) {
	s := &stack{w: w, tr: tr}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if w.rtt > 0 {
		s.bd = bucketd.New(bucketd.Config{RTT: w.rtt})
		addr, wait, err := serve(s.bd)
		if err != nil {
			return nil, err
		}
		s.memAddr = addr
		s.closers = append(s.closers, func() error { s.bd.Close(); return wait() })
	}
	if w.durable {
		if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
			return nil, err
		}
		if s.dir, err = os.MkdirTemp(tmpRoot, w.name+"-"); err != nil {
			return nil, err
		}
		s.closers = append(s.closers, func() error {
			err := os.RemoveAll(s.dir)
			os.Remove(tmpRoot) // succeeds only once the last data dir under it is gone
			return err
		})
	}
	if s.st, err = store.New(w.storeConfig(s.dir, s.memAddr)); err != nil {
		return nil, err
	}
	s.closers = append(s.closers, func() error { return s.st.Close() })
	if w.network {
		s.fs = frameserver.New(s.st)
		addr, wait, err := serve(s.fs)
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, func() error { s.fs.Close(); return wait() })
		var transport client.Transport = &client.BinaryTransport{Addr: addr, Conns: 2}
		if tr != nil {
			transport = &timedTransport{Transport: transport, tr: tr}
		}
		if s.cl, err = client.New(client.Config{Transport: transport}); err != nil {
			return nil, err
		}
		s.closers = append(s.closers, s.cl.Close)
	}
	return s, nil
}

// close tears the stack down top first and returns the first error.
func (s *stack) close() error {
	var first error
	for i := len(s.closers) - 1; i >= 0; i-- {
		if err := s.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	s.closers = nil
	return first
}

// prefill writes the workload's prefill blocks once, each by the client
// that owns it, through the same entry point the measured ops use.
func (s *stack) prefill(cs []*clientState) error {
	var wg sync.WaitGroup
	errs := make([]error, len(cs))
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *clientState) {
			defer wg.Done()
			ops := make([]op, 0, 64)
			flush := func() {
				if n := c.issue(s, ops, nil); n > 0 && errs[i] == nil {
					errs[i] = fmt.Errorf("%s: %d of %d prefill writes failed", s.w.name, n, len(ops))
				}
				ops = ops[:0]
			}
			for a := uint64(i); a < s.w.prefill; a += uint64(len(cs)) {
				if ops = append(ops, op{addr: a, write: true}); len(ops) == cap(ops) {
					flush()
				}
			}
			flush()
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// reopenAndVerify is the durable workload's restart check: Snapshot, Close,
// store.New on the same directory, then every block a client ever wrote is
// read back against its shadow. It returns reads attempted and failed.
func (s *stack) reopenAndVerify(cs []*clientState) (attempted, failed int, err error) {
	if err := s.st.Snapshot(); err != nil {
		return 0, 0, err
	}
	if err := s.st.Close(); err != nil {
		return 0, 0, err
	}
	st, err := store.New(s.w.storeConfig(s.dir, ""))
	if err != nil {
		return 0, 0, fmt.Errorf("reopening %s: %w", filepath.Base(s.dir), err)
	}
	s.st = st // the registered closer closes whatever s.st is now
	for _, c := range cs {
		for i, ver := range c.sh.ver {
			if ver == 0 {
				continue
			}
			addr := uint64(i)*c.sh.clients + uint64(c.id)
			got, err := st.Get(addr)
			attempted++
			if err != nil || !holds(got, addr, ver) {
				failed++
			}
		}
	}
	return attempted, failed, nil
}
