// Fixture: oblivious-marked code whose control flow depends only on public
// values (sizes, loop counters, error states) produces no findings.

//oram:oblivious
package clean

type gadget struct {
	levels int
}

// Constant-time select: data-independent control flow over secret inputs.
func ctSelect(mask byte, a, b []byte, out []byte) {
	for i := range out {
		out[i] = (a[i] & mask) | (b[i] &^ mask)
	}
}

func (g *gadget) walk(depth int) int {
	total := 0
	for lvl := 0; lvl < g.levels; lvl++ {
		if lvl == depth { // public structural value, not a secret
			total++
		}
	}
	return total
}
