// Integrity: the active-adversary walkthrough of §6.
//
// Act 1 — PMMAC catches data tampering: flip one bit anywhere useful in
// DRAM and the next access of that block raises an integrity violation.
//
// Act 2 — PMMAC catches replay: snapshot an old (MAC, data) pair and play
// it back later; the per-block counter makes the stale MAC invalid.
//
// Act 3 — the §6.4 subtlety: with per-bucket encryption seeds ([26]'s
// scheme), an adversary who replays a bucket's seed forces one-time-pad
// reuse WITHOUT tripping PMMAC — decrypting XOR-able ciphertexts. The
// global-seed scheme closes the hole.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"

	"freecursive"
	"freecursive/internal/adversary"
	"freecursive/internal/backend"
	"freecursive/internal/crypt"
	"freecursive/internal/mem"
)

func main() {
	act1()
	act2()
	act3()
}

func newORAM() *freecursive.ORAM {
	o, err := freecursive.New(freecursive.Config{Blocks: 1 << 12, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	return o
}

func store(o *freecursive.ORAM) mem.Backend {
	be := o.System().Backends[0].(*backend.PathORAM)
	return be.Store()
}

func act1() {
	fmt.Println("--- Act 1: bit-flip tampering ---")
	o := newORAM()
	for a := uint64(0); a < 256; a++ {
		if _, err := o.Write(a, []byte{byte(a)}); err != nil {
			log.Fatal(err)
		}
	}
	// The adversary flips one bit in every materialized bucket: whichever
	// block the program touches next, its bucket is corrupt.
	st := store(o)
	flipped := 0
	for idx := uint64(0); idx < 1<<13; idx++ {
		if raw := adversary.Inspect(st, idx); raw != nil {
			raw[len(raw)/2] ^= 0x40
			if err := st.Write(idx, raw); err != nil {
				log.Fatal(err)
			}
			flipped++
		}
	}
	fmt.Printf("flipped one bit in each of %d buckets\n", flipped)

	var err error
	for a := uint64(0); a < 256; a++ {
		if _, err = o.Read(a); err != nil {
			break
		}
	}
	if errors.Is(err, freecursive.ErrIntegrity) {
		fmt.Printf("PMMAC raised: %v\n", err)
	} else {
		log.Fatalf("tampering went undetected! err=%v", err)
	}
	fmt.Printf("violations counted: %d\n\n", o.Stats().Violations)
}

func act2() {
	fmt.Println("--- Act 2: replay of stale ciphertext ---")
	o := newORAM()
	// A working set large enough that most of it is evicted below the
	// treetop cache, into DRAM: what stays on chip the adversary cannot
	// reach, let alone roll back.
	const blocks = 256
	ledger := func(version string) {
		for a := uint64(0); a < blocks; a++ {
			if _, err := o.Write(a, []byte(fmt.Sprintf("%s: pay account %d", version, a))); err != nil {
				log.Fatal(err)
			}
		}
	}
	ledger("v1")
	// Snapshot all of DRAM while it holds v1.
	st := store(o)
	snapshot := map[uint64][]byte{}
	for idx := uint64(0); idx < 1<<13; idx++ {
		if raw := adversary.Inspect(st, idx); raw != nil {
			snapshot[idx] = raw
		}
	}
	ledger("v2")
	// Roll DRAM back to the v1 snapshot: every stored MAC is again a
	// genuine MAC — but for counters the frontend has already moved past.
	for idx, raw := range snapshot {
		if err := st.Write(idx, raw); err != nil {
			log.Fatal(err)
		}
	}
	var err error
	for a := uint64(0); a < blocks && err == nil; a++ {
		var got []byte
		if got, err = o.Read(a); err == nil && !bytes.HasPrefix(got, []byte("v2")) {
			log.Fatalf("stale block %d served: %q", a, got[:20])
		}
	}
	if errors.Is(err, freecursive.ErrIntegrity) {
		fmt.Printf("replay detected: %v\n\n", err)
	} else {
		log.Fatalf("replay went undetected! err=%v", err)
	}
}

func act3() {
	fmt.Println("--- Act 3: the §6.4 one-time-pad replay attack ---")
	// Demonstrate the pad reuse itself at the crypto layer: seal a bucket
	// twice under the per-bucket-seed scheme while the adversary pins the
	// seed, and show the two pads cancel.
	keys := []byte("0123456789abcdef")
	demo := func(scheme crypt.SeedScheme) bool {
		bc, err := crypt.NewBucketCipher(keys, scheme)
		if err != nil {
			log.Fatal(err)
		}
		d1 := []byte("plaintext AAAAAA")
		d2 := []byte("plaintext BBBBBB")
		c1 := bc.Seal(7, 0, d1) // bucket 7, first seal
		// The controller reads the bucket back; the adversary replays the
		// previous seed value by handing back seed-1 in the next seal's
		// prevSeed (for the per-bucket scheme the controller derives the
		// next seed from what it READ, which the adversary controls).
		seed1 := uint64(0) // pretend the stored seed said "0" again
		c2 := bc.Seal(7, seed1, d2)
		// Pad reuse check: c1 XOR c2 == d1 XOR d2 reveals plaintext
		// relationships without any key.
		reuse := true
		for i := range d1 {
			if c1[crypt.SeedBytes+i]^c2[crypt.SeedBytes+i] != d1[i]^d2[i] {
				reuse = false
				break
			}
		}
		return reuse
	}

	if demo(crypt.SeedPerBucket) {
		fmt.Println("per-bucket seeds ([26]): pad REUSED -> adversary learns d1 XOR d2")
	} else {
		log.Fatal("expected pad reuse under per-bucket seeds")
	}
	if !demo(crypt.SeedGlobal) {
		fmt.Println("global seed (§6.4 fix):  pads fresh -> attack defeated")
	} else {
		log.Fatal("global seed scheme reused a pad!")
	}
}
