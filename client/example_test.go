package client_test

import (
	"fmt"
	"log"
	"net"

	"freecursive"
	"freecursive/client"
	"freecursive/internal/frameserver"
	"freecursive/internal/store"
)

// Example drives the client against a live oramstore frame listener —
// here the production frame server on a loopback port; in deployment the
// address would be a `oramstore` process's `-listen-binary`. See
// examples/batchclient for a standalone program doing the same.
func Example() {
	st, err := store.New(store.Config{
		Shards: 4,
		Blocks: 1 << 10,
		ORAM:   freecursive.Config{BlockBytes: 16},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	srv := frameserver.New(st)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	c, err := client.New(client.Config{Transport: client.Binary(ln.Addr().String())})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// Get/Put look like a plain KV store; concurrent calls are batched
	// onto the wire automatically.
	if err := c.Put(42, []byte("hello oram")); err != nil {
		log.Fatal(err)
	}
	got, err := c.Get(42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("block 42: %q\n", got[:10])

	// An explicit batch exposes per-operation outcomes.
	results, err := c.Do([]client.BatchOp{
		{Op: client.OpPut, Addr: 7, Data: []byte("seven")},
		{Op: client.OpGet, Addr: 7},
		{Op: client.OpGet, Addr: 1 << 40}, // out of range: fails alone
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("put: %d, get: %d (%q), bad: %d\n",
		results[0].Status, results[1].Status, results[1].Data[:5], results[2].Status)

	// Output:
	// block 42: "hello oram"
	// put: 204, get: 200 ("seven"), bad: 400
}
