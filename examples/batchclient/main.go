// Batchclient: the native Go client against a live oramstore server.
//
// The program is self-contained: it serves the production frame protocol
// (freecursive/internal/frameserver — what cmd/oramstore serves on
// -listen-binary) on a local listener, then talks to it only through the
// freecursive/client package, the way a remote caller would:
//
//  1. a mixed put/get batch in one round trip,
//  2. concurrent Get/Put callers whose requests micro-batch automatically
//     (watch the server's coalesced-read counter move under a hot-key
//     workload),
//  3. a quarantined shard failing only its slice of a batch — per-op 503s
//     with a Retry-After hint while the rest of the batch completes.
//
// It exits non-zero if any step goes wrong, so CI runs it.
package main

import (
	"fmt"
	"log"
	"net"
	"sync"

	"freecursive"
	"freecursive/client"
	"freecursive/internal/frameserver"
	"freecursive/internal/store"
)

func main() {
	log.SetFlags(0)

	// A live server: the production frame server on a real TCP listener.
	st, err := store.New(store.Config{
		Shards: 4,
		Blocks: 1 << 12,
		ORAM:   freecursive.Config{Scheme: freecursive.PIC, BlockBytes: 64},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := frameserver.New(st)
	go srv.Serve(ln)
	defer srv.Close()
	fmt.Printf("server: %s (PIC, %d shards)\n\n", ln.Addr(), st.Shards())

	c, err := client.New(client.Config{Transport: client.Binary(ln.Addr().String())})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// 1. One explicit mixed batch: interleaved puts and gets, one
	// round-trip, per-op outcomes.
	ops := []client.BatchOp{
		{Op: client.OpPut, Addr: 1, Data: []byte("alpha")},
		{Op: client.OpPut, Addr: 2, Data: []byte("beta")},
		{Op: client.OpGet, Addr: 1},
		{Op: client.OpGet, Addr: 2},
	}
	results, err := c.Do(ops)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("mixed batch, one round trip:")
	for i, res := range results {
		if res.Status >= 400 {
			log.Fatalf("%s addr %d failed: %d %s", ops[i].Op, ops[i].Addr, res.Status, res.Error)
		}
		fmt.Printf("  %-3s addr %d -> %d %.5q\n", ops[i].Op, ops[i].Addr, res.Status, res.Data)
	}

	// 2. Concurrent callers micro-batch automatically: 64 goroutines
	// hammer a handful of hot addresses through plain Get, and the server's
	// pipelines coalesce the duplicates that arrive together.
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Get(uint64(1 + i%2)); err != nil {
				log.Fatal(err)
			}
		}(i)
	}
	wg.Wait()
	var coalesced uint64
	for _, info := range st.ShardInfos() {
		coalesced += info.CoalescedReads
	}
	fmt.Printf("\n64 concurrent gets of 2 hot blocks: %d reads coalesced server-side\n", coalesced)

	// 3. Partial failure: fence one shard and send a batch spanning it.
	// Only the poisoned shard's ops fail; note the per-op 503 + hint.
	const victim = 2
	if err := st.Quarantine(victim, fmt.Errorf("operator fenced: suspect disk")); err != nil {
		log.Fatal(err)
	}
	var span []client.BatchOp
	for addr := uint64(0); len(span) < 8; addr++ {
		span = append(span, client.BatchOp{Op: client.OpGet, Addr: addr})
	}
	results, err = c.Do(span)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbatch across a quarantined shard (shard %d fenced):\n", victim)
	for i, res := range results {
		onVictim := st.ShardOf(span[i].Addr) == victim
		switch {
		case !onVictim && res.Status < 400:
			fmt.Printf("  get addr %d -> %d ok\n", span[i].Addr, res.Status)
		case onVictim && res.Status == 503:
			fmt.Printf("  get addr %d -> %d retry-after %ds (quarantined, expected)\n",
				span[i].Addr, res.Status, res.RetryAfterSeconds)
		default:
			log.Fatalf("get addr %d (quarantined shard: %v) -> %d %s",
				span[i].Addr, onVictim, res.Status, res.Error)
		}
	}
}
