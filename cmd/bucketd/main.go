// Command bucketd runs the remote untrusted bucket store: a TCP server
// holding sealed ORAM buckets for oramstore processes whose untrusted
// memory is configured remote (-mem-addr).
//
// bucketd is the machine on the far side of the paper's trust boundary. It
// stores bytes it cannot read — every bucket is sealed by the client-side
// controller, and tampering, deletion, or replay here is detected by the
// controller's decryption and PMMAC layers, never trusted away. Because of
// that, bucketd has no keys, no authentication, and no persistence
// machinery: it is deliberately the smallest process that makes "untrusted
// memory" a separate failure domain.
//
// Flags:
//
//	-addr  listen address (default :9200)
//	-rtt   injected round-trip latency: every response is withheld until
//	       this long after its request arrived, while later frames keep
//	       being processed (pipelined requests overlap their RTTs). For
//	       remote-latency benchmarks; default 0.
//
// Liveness is a TCP connect (the server speaks only the bucketwire frame
// protocol, so there is no HTTP endpoint to probe). SIGINT/SIGTERM stops
// accepting, drops live connections, and exits; bucket contents are
// in-memory only and are lost — the controllers' PMMAC refuses any state a
// restarted bucketd cannot serve faithfully.
//
// Example:
//
//	bucketd -addr :9200 -rtt 10ms &
//	oramstore -mem-addr localhost:9200
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"freecursive/internal/bucketd"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bucketd: ")
	addr := flag.String("addr", ":9200", "TCP listen address")
	rtt := flag.Duration("rtt", 0, "injected round-trip latency per request frame")
	verbose := flag.Bool("v", false, "log connection events")
	flag.Parse()

	cfg := bucketd.Config{RTT: *rtt}
	if *verbose {
		cfg.Logf = log.Printf
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(ln, cfg, stop); err != nil {
		log.Fatal(err)
	}
}

// run serves buckets on ln until Serve fails or stop fires. On stop it
// closes the server, which returns once every connection is gone, and then
// waits for Serve to return.
func run(ln net.Listener, cfg bucketd.Config, stop <-chan os.Signal) error {
	srv := bucketd.New(cfg)
	log.Printf("serving buckets on %s (rtt %v)", ln.Addr(), cfg.RTT)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		return err
	case <-stop:
		log.Print("shutting down")
		srv.Close()
		return <-done
	}
}
