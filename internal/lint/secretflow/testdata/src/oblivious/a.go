// Fixture: secret-dependent control flow in an oblivious-marked package,
// including secrets that are named and sunk inside one function.

//oram:oblivious
package a

type block struct {
	Leaf uint64
	data []byte
}

func lookup(table []int, addr int) int {
	return table[addr] // want "secret-dependent memory index: value derives from parameter addr"
}

func branch(leaf uint64) int {
	if leaf == 0 { // want "secret-dependent branch condition: value derives from parameter leaf"
		return 1
	}
	return 0
}

func derived(leaf uint64) int {
	x := leaf * 2
	y := x + 1
	for y > 0 { // want "secret-dependent loop bound: value derives from parameter leaf"
		y--
	}
	return 0
}

func field(b *block, n uint64) int {
	switch b.Leaf { // want `secret-dependent switch tag: value derives from field "Leaf"`
	case n:
		return 1
	}
	return 0
}

func ranged(addrs []uint64, counts []int) int {
	total := 0
	for _, a := range addrs {
		total += counts[a] // want "secret-dependent memory index: value derives from parameter addrs"
	}
	return total
}
