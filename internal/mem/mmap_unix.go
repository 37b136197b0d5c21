//go:build darwin || dragonfly || freebsd || linux || openbsd

package mem

import (
	"os"
	"syscall"
	"unsafe"
)

// The platform seam under FileStore: map the page file, flush the mapping,
// unmap it. The build tag is the unices whose syscall package can msync;
// everything else gets mmap_other.go.

// mapFile maps the first size bytes of f shared and writable, so stores
// reach the kernel's page cache for the file directly.
func mapFile(f *os.File, size int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
}

// flushMap writes the mapping's dirty pages to the file and waits for them.
func flushMap(b []byte) error {
	_, _, errno := syscall.Syscall(syscall.SYS_MSYNC,
		uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(len(b)), syscall.MS_SYNC)
	if errno != 0 {
		return errno
	}
	return nil
}

func unmapFile(b []byte) error { return syscall.Munmap(b) }
