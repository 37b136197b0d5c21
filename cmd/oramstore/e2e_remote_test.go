package main

import (
	"bytes"
	"net"
	"net/http"
	"testing"

	"freecursive"
	"freecursive/client"
	"freecursive/internal/adversary"
	"freecursive/internal/bucketd"
	"freecursive/internal/core"
	"freecursive/internal/frameserver"
	"freecursive/internal/mem"
	"freecursive/internal/store"
)

// TestRemoteTamperDetectedEndToEnd is the full-stack adversary experiment:
// a live bucketd holds the sealed buckets, an oramstore-style stack (store
// + binary frame server) serves a client, and the adversary — with nothing
// but the bucket server's address — corrupts the sealed buckets of shard
// 0's data tree over the wire. PMMAC must latch as soon as a read fetches
// a tampered block, the shard must quarantine, and the client must surface
// it as a 503 with a Retry-After hint.
// The campaign runs against both backend constructions: the adversary's
// vantage point (the bucket server) is identical either way.
func TestRemoteTamperDetectedEndToEnd(t *testing.T) {
	for _, kind := range core.BackendKinds() {
		t.Run(kind, func(t *testing.T) { testRemoteTamper(t, kind) })
	}
}

func testRemoteTamper(t *testing.T, backendKind string) {
	// Untrusted bucket server.
	bsrv := bucketd.New(bucketd.Config{})
	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go bsrv.Serve(bln)
	defer bsrv.Close()

	// Trusted stack: store over remote memory, serving the frame protocol.
	st, err := store.New(store.Config{
		Shards:  1,
		Blocks:  1 << 8,
		MemAddr: bln.Addr().String(),
		ORAM: freecursive.Config{
			Scheme: freecursive.PIC, BlockBytes: 32, Seed: 5,
			Backend: backendKind, StashCapacity: 32,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fsrv := frameserver.New(st)
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fsrv.Serve(fln)
	defer fsrv.Close()

	bc, err := client.New(client.Config{Transport: client.Binary(fln.Addr().String()), MaxBatch: 1, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()

	// Healthy round trip.
	want := bytes.Repeat([]byte{0x42}, st.BlockBytes())
	for a := uint64(0); a < 32; a++ {
		if err := bc.Put(a, want); err != nil {
			t.Fatalf("Put(%d): %v", a, err)
		}
	}
	if got, err := bc.Get(3); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("binary Get(3) = %x, %v", got, err)
	}

	// The adversary needs nothing but bucketd's address and the (public)
	// namespace layout: shard 0's data tree. Nudge the encryption seed and
	// the ciphertext body of every materialized bucket — the same campaign
	// tamperShard runs in-process — so every block still resident in the
	// tree garbles on its next fetch.
	adv, err := mem.DialRemote(mem.RemoteConfig{
		Addr:      bln.Addr().String(),
		Namespace: "store/shard-0000/tree-0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer adv.Close()
	tampered := 0
	for idx := uint64(0); idx < 1<<10; idx++ {
		raw := adversary.Inspect(adv, idx)
		if raw == nil {
			continue
		}
		raw[len(raw)-1] ^= 0xff
		raw[7] ^= 0x01
		if err := adv.Write(idx, raw); err != nil {
			t.Fatal(err)
		}
		tampered++
	}
	if tampered == 0 {
		t.Fatal("nothing to corrupt")
	}

	// Sweep until PMMAC catches a corrupted fetch and quarantines the
	// shard; each healthy access re-seals its path, but the campaign hit
	// every bucket, so detection is guaranteed once a tampered block of
	// interest is pulled.
	var tampErr error
	for i := 0; i < 200 && tampErr == nil; i++ {
		if _, err := bc.Get(uint64(i) % 32); err != nil {
			tampErr = err
		}
	}
	if tampErr == nil {
		t.Fatal("tamper campaign never detected")
	}

	// The client must now fail-stop with 503 + Retry-After.
	_, err = bc.Get(3)
	if err == nil {
		t.Fatal("read of tampered (quarantined) store succeeded")
	}
	ce := client.AsError(err)
	if ce == nil {
		t.Fatalf("error %v carries no status", err)
	}
	if ce.Status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (err: %v)", ce.Status, err)
	}
	if ce.RetryAfter <= 0 {
		t.Error("503 without Retry-After hint")
	}
	if got := st.ShardState(0); got != store.StateQuarantined {
		t.Fatalf("shard state %v after tamper, want quarantined", got)
	}
}
