// Fixture: no //oram:oblivious directive. Under a scoped import path a
// secret-named parameter reaching a sink is still a finding, but a secret
// named and sunk inside one function is not; under an out-of-scope path the
// analyzer stays silent, whatever the code does with addresses.
package unmarked

type block struct {
	Leaf uint64
}

func lookup(table []int, addr int) int {
	if addr < 0 { // want "secret-dependent branch condition: value derives from parameter addr"
		return 0
	}
	return table[addr] // want "secret-dependent memory index: value derives from parameter addr"
}

func field(b *block, n uint64) int {
	switch b.Leaf { // named and sunk locally: reported only in marked packages
	case n:
		return 1
	}
	return 0
}
