package freecursive_test

import (
	"fmt"
	"log"

	"freecursive"
)

// The zero Config builds the paper's deployable configuration, PIC_X32: PLB,
// compressed PosMap and PMMAC integrity verification on every access.
func ExampleNew() {
	o, err := freecursive.New(freecursive.Config{
		Blocks: 1 << 20, // 64 MiB of protected memory in 64-byte blocks
	})
	if err != nil {
		log.Fatal(err)
	}
	defer o.Close()
	if _, err := o.Write(42, []byte("secret")); err != nil {
		log.Fatal(err)
	}
	got, err := o.Read(42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s read %q; PMMAC checked: %v\n", o.SchemeName(), got[:6], o.Stats().MACChecks > 0)
	// Output: PIC_X32 read "secret"; PMMAC checked: true
}
