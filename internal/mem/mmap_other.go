//go:build !(darwin || dragonfly || freebsd || linux || openbsd)

package mem

import (
	"errors"
	"os"
)

// No mapping here, and FileStore has no other way to reach its page file:
// OpenFile fails, flushMap and unmapFile are never reached.

func mapFile(*os.File, int) ([]byte, error) {
	return nil, errors.New("file-backed memory needs mmap, which this platform's build does not have")
}

func flushMap([]byte) error { return nil }

func unmapFile([]byte) error { return nil }
