// Command oramstore serves a sharded oblivious block store, and doubles as
// a load probe for a running one.
//
// Serve mode (the default) listens twice, on loopback unless told
// otherwise. The frame listener (-listen-binary, 127.0.0.1:8081 unless set;
// "" turns it off) is the batched data plane: length-prefixed request/response frames
// (freecursive/internal/frame) over long-lived pipelined connections,
// dispatched straight into the store's batch pipeline — the wire of
// freecursive/client. The HTTP listener (-addr, 127.0.0.1:8080 unless
// set) is for admin and debugging (handler in freecursive/internal/httpapi):
//
//	GET  /block/{addr}  — read a block (application/octet-stream)
//	PUT  /block/{addr}  — write a block (body is zero-padded/truncated)
//	GET  /stats         — aggregate + per-shard counters as JSON
//	GET  /shards        — per-shard lifecycle + pipeline state as JSON
//	GET  /metrics       — the same counters in Prometheus text format, and
//	                      the frame server's under oramstore_transport_*
//	GET  /healthz       — liveness probe
//
// Requests are served by the store's asynchronous per-shard pipeline. A
// shard that latches a PMMAC integrity violation is quarantined: its
// addresses answer 503 with a Retry-After header (the data on every other
// shard stays available), true internal errors answer 500, and caller
// mistakes 400 — so monitoring can tell a misbehaving client, a broken
// server, and a poisoned shard apart. The frame protocol carries the same
// codes per operation, so one poisoned shard fails only its slice of a
// batch.
//
// With -data-dir the store is durable: sealed buckets live in per-shard
// page files, and on SIGINT/SIGTERM the server drains connections and the
// shard queues, snapshots the trusted controller state (position map,
// stash, PMMAC counters) and exits; the next start resumes serving the
// same blocks. -snapshot-interval additionally snapshots on a background
// ticker, bounding how much counter state a crash can lose. After a crash
// (no clean snapshot), PMMAC refuses blocks whose on-disk state diverged
// instead of serving them.
//
// Load mode probes a RUNNING server's frame listener (-addr host:port)
// with concurrent random reads and writes through the micro-batching
// client — uniformly or Zipf-skewed (-dist zipf), the latter showing off
// the pipeline's duplicate-read coalescing — and reports throughput and
// latency percentiles as seen by a client. It builds no store of its own
// (bench/ is the load generator that does, and the only place a
// throughput number is recorded).
//
// Examples:
//
//	oramstore -shards 16 -blocks 20
//	oramstore -listen-binary 127.0.0.1:9081 -shards 16
//	oramstore -addr 10.0.0.5:8080 -listen-binary 10.0.0.5:8081 -shards 16   # serve beyond loopback
//	oramstore -shards 4 -blocks 18 -data-dir /var/lib/oramstore
//	oramstore load -addr 127.0.0.1:8081 -dist zipf -batch 16
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"freecursive/client"
	"freecursive/internal/frameserver"
	"freecursive/internal/httpapi"
	"freecursive/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("oramstore: ")
	if len(os.Args) > 1 && os.Args[1] == "load" {
		runLoad(os.Args[2:])
		return
	}
	runServe(os.Args[1:])
}

// --- serve mode -------------------------------------------------------------

// serveOpts holds the parsed serve-mode flags.
type serveOpts struct {
	addr, listenBin string
	cfg             store.Config
	logBlocks       int
	snapEvery       time.Duration
}

// serveFlags defines the serve-mode flags, filling o when the returned set
// is parsed. The README's serve-flag table lists exactly these.
func serveFlags(o *serveOpts) *flag.FlagSet {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8080", "HTTP listen address (single blocks, stats, metrics, health)")
	fs.StringVar(&o.listenBin, "listen-binary", "127.0.0.1:8081", "serve the binary frame protocol, the batched data plane, on this TCP address (\"\" turns it off)")
	fs.IntVar(&o.cfg.Shards, "shards", 8, "ORAM shard count (rounded up to a power of two)")
	fs.IntVar(&o.logBlocks, "blocks", 16, "log2 of total capacity in blocks")
	fs.IntVar(&o.cfg.ORAM.BlockBytes, "block", 64, "block size in bytes")
	fs.StringVar(&o.cfg.ORAM.Backend, "backend", "path", "position-based ORAM backend: path (tree) | bhoram (bucket-hash, deamortized rebuilds)")
	fs.Uint64Var(&o.cfg.ORAM.Seed, "seed", 1, "deterministic seed")
	fs.StringVar(&o.cfg.DataDir, "data-dir", "", "durable mode: per-shard bucket files + trusted-state snapshots under this directory")
	fs.StringVar(&o.cfg.MemAddr, "mem-addr", "", "remote mode: keep sealed buckets on the bucketd server at this TCP address (host:port)")
	fs.StringVar(&o.cfg.MemNamespace, "mem-namespace", "", "remote mode: bucketd namespace prefix (default \"store\")")
	fs.DurationVar(&o.snapEvery, "snapshot-interval", 0, "durable mode: also snapshot trusted state on this interval (0: only at shutdown)")
	return fs
}

// check rejects flag values the store would otherwise replace or ignore
// without a word, and derives cfg.Blocks from -blocks.
func (o *serveOpts) check() error {
	if err := checkLogBlocks(o.logBlocks); err != nil {
		return err
	}
	if o.snapEvery < 0 {
		return fmt.Errorf("-snapshot-interval must not be negative, got %v", o.snapEvery)
	}
	if o.snapEvery != 0 && o.cfg.DataDir == "" {
		return errors.New("-snapshot-interval needs -data-dir")
	}
	o.cfg.Blocks = 1 << uint(o.logBlocks)
	return nil
}

// checkLogBlocks bounds -blocks, a log2 capacity in both modes: outside
// [0, 63] the shift to a block count wraps to 0 or overflows.
func checkLogBlocks(v int) error {
	if v < 0 || v > 63 {
		return fmt.Errorf("-blocks must be in [0, 63] (log2 of the block count), got %d", v)
	}
	return nil
}

func runServe(args []string) {
	var o serveOpts
	serveFlags(&o).Parse(args)
	if err := o.check(); err != nil {
		log.Fatal(err)
	}
	st, err := store.New(o.cfg)
	if err != nil {
		log.Fatal(err)
	}
	mode := "in-memory"
	if o.cfg.DataDir != "" {
		mode = "durable in " + o.cfg.DataDir
	}
	if o.cfg.MemAddr != "" {
		mode = "remote buckets at " + o.cfg.MemAddr
	}
	log.Printf("serving %d blocks x %d B across %d shards (PIC/%s, %s) on %s",
		st.Blocks(), st.BlockBytes(), st.Shards(), o.cfg.ORAM.Backend, mode, o.addr)

	// The binary frame server shares the store (and the /metrics endpoint,
	// via the TransportSource hook) with the HTTP handler.
	var fsrv *frameserver.Server
	var sources []httpapi.TransportSource
	errCh := make(chan error, 2)
	if o.listenBin != "" {
		fsrv = frameserver.New(st)
		sources = append(sources, fsrv)
		ln, err := net.Listen("tcp", o.listenBin)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("binary frame protocol on %s", ln.Addr())
		go func() {
			if err := fsrv.Serve(ln); err != nil {
				errCh <- err
			}
		}()
	}

	srv := &http.Server{Addr: o.addr, Handler: httpapi.New(st, sources...)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() { errCh <- srv.ListenAndServe() }()
	if o.snapEvery > 0 {
		go snapshotTicker(ctx, st, o.snapEvery)
	}

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Print("shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Printf("drain: %v", err)
	}
	if fsrv != nil {
		fsrv.Close()
	}
	if err := shutdownStore(st, o.cfg.DataDir != ""); err != nil {
		log.Fatal(err)
	}
}

// snapshotTicker periodically persists the trusted controller state so a
// crash loses at most one interval of counter advances. Errors are logged,
// not fatal: a quarantined shard is skipped by design (its state must not
// be resurrected) and the rest of the store keeps snapshotting.
func snapshotTicker(ctx context.Context, st *store.Store, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := st.Snapshot(); err != nil {
				log.Printf("periodic snapshot: %v", err)
			}
		}
	}
}

// shutdownStore performs the clean-stop sequence: snapshot trusted state
// (durable stores only), then drain the shard queues and release the
// bucket files. A quarantined shard only fails its own snapshot; the
// healthy shards' state is persisted and shutdown proceeds.
func shutdownStore(st *store.Store, durable bool) error {
	if durable {
		if err := st.Snapshot(); err != nil {
			if !errors.Is(err, store.ErrQuarantined) {
				return err
			}
			log.Printf("snapshot: %v", err)
		}
	}
	return st.Close()
}

// --- load mode --------------------------------------------------------------

// loadArgs holds the parsed load-mode flags: the frame listener to probe,
// the client's batching, and the run the workers drive.
type loadArgs struct {
	addr      string
	conns     int
	cfg       client.Config
	logBlocks int
	run       loadOpts
}

// loadFlags defines the load-mode flags, filling o when the returned set is
// parsed. The README's load-flag table lists exactly these.
func loadFlags(o *loadArgs) *flag.FlagSet {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8081", "the server's frame listener (its -listen-binary), host:port")
	fs.IntVar(&o.cfg.MaxBatch, "batch", 16, "client micro-batch size (1 disables batching)")
	fs.DurationVar(&o.cfg.FlushInterval, "flush-interval", 2*time.Millisecond, "client micro-batch flush interval")
	fs.IntVar(&o.conns, "conns", 0, "client connection pool size (0: transport default)")
	fs.IntVar(&o.run.workers, "workers", 16, "concurrent workers")
	fs.DurationVar(&o.run.duration, "duration", 5*time.Second, "run length")
	fs.IntVar(&o.logBlocks, "blocks", 16, "log2 of address range to hit")
	fs.IntVar(&o.run.blockB, "block", 64, "write payload size in bytes")
	fs.Float64Var(&o.run.writeFrac, "writes", 0.5, "fraction of requests that are writes")
	fs.StringVar(&o.run.dist, "dist", "uniform", "address distribution: uniform | zipf")
	fs.Float64Var(&o.run.zipfS, "zipf-s", 1.2, "zipf skew parameter (> 1; larger is hotter)")
	fs.Uint64Var(&o.run.seed, "seed", 1, "load-generator seed (workers derive independent streams)")
	return fs
}

// check rejects unusable load flags — values that would panic, divide by
// zero, run nothing or be silently clamped — and derives run.addrs from
// -blocks.
func (o *loadArgs) check() error {
	if o.run.dist != "uniform" && o.run.dist != "zipf" {
		return fmt.Errorf("unknown -dist %q (want uniform or zipf)", o.run.dist)
	}
	if o.run.dist == "zipf" && o.run.zipfS <= 1 {
		return fmt.Errorf("-zipf-s must be > 1, got %v", o.run.zipfS)
	}
	if err := checkLogBlocks(o.logBlocks); err != nil {
		return err
	}
	switch {
	case o.run.workers < 1:
		return fmt.Errorf("-workers must be at least 1, got %d", o.run.workers)
	case o.run.duration <= 0:
		return fmt.Errorf("-duration must be positive, got %v", o.run.duration)
	case o.run.blockB < 0:
		return fmt.Errorf("-block must not be negative, got %d", o.run.blockB)
	case !(o.run.writeFrac >= 0 && o.run.writeFrac <= 1):
		return fmt.Errorf("-writes must be in [0, 1], got %v", o.run.writeFrac)
	}
	o.run.addrs = uint64(1) << uint(o.logBlocks)
	return nil
}

func runLoad(args []string) {
	var o loadArgs
	loadFlags(&o).Parse(args)
	if err := o.check(); err != nil {
		log.Fatal(err)
	}

	checkBinaryHealth(o.addr)
	tr := client.Binary(o.addr)
	tr.Conns = o.conns
	o.cfg.Transport = tr
	c, err := client.New(o.cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	rep := runWorkers(c, o.run)
	fmt.Printf("ops: %d (%.0f/s), failures: %d\n", rep.ops, rep.opsPerSec, rep.failures)
	for _, p := range []struct {
		name string
		d    time.Duration
	}{{"p50", rep.p50}, {"p90", rep.p90}, {"p99", rep.p99}} {
		fmt.Printf("%s: %v\n", p.name, p.d.Round(time.Microsecond))
	}
}

// checkBinaryHealth probes the frame listener: a TCP connect is the
// protocol's liveness check (the server speaks only framed batches, so
// there is no /healthz to hit).
func checkBinaryHealth(addr string) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		log.Fatalf("binary target not reachable: %v", err)
	}
	conn.Close()
}
