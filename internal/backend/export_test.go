package backend

import "freecursive/internal/tree"

// TreetopBytesFor returns the Config.TreetopBytes that caches exactly the top
// levels levels of a tree of geometry g — the size of their plaintext
// buckets — or, for no levels, the negative that switches the treetop off.
func TreetopBytesFor(g tree.Geometry, levels int) int {
	if levels <= 0 {
		return -1
	}
	return (1<<uint(levels) - 1) * g.Z * (slotHeader + g.BlockBytes)
}
