// Package memtest holds test doubles for the internal/mem contracts.
package memtest

import (
	"bytes"
	"fmt"

	"freecursive/internal/bucketwire"
	"freecursive/internal/mem"
)

// Split is an in-process mem.SplitPathReader with the ordering of a remote
// memory and none of its timing: an issued path read captures the buckets
// as they are at that moment — what a bucketd applying frames in arrival
// order would answer — and CompleteReadPath hands the oldest capture over.
// A read issued before a WritePath therefore never sees it, which is the
// one property the in-flight window above has to cope with. Everything is
// synchronous and deterministic, so a test can drive any interleaving of
// issues and completions and replay it from a seed.
//
// Trace, when set, is the wiretap: it is called per bucket, in wire order,
// with bucketwire.OpReadPath when a read is issued and bucketwire.OpWritePath
// when a path is written. The embedded store's write hook still fires per
// written bucket; its read hook is bypassed.
type Split struct {
	*mem.Store
	Trace func(op byte, idx uint64)

	issued [][][]byte // captured paths, oldest first
	free   [][][]byte // spent captures, for reuse
	signal chan struct{}
}

// NewSplit returns an empty split-phase memory.
func NewSplit() *Split {
	return &Split{Store: mem.NewStore(), signal: make(chan struct{}, 1)}
}

// IssueReadPath implements mem.SplitPathReader.
//
//oram:offhotpath test double: it copies every bucket it captures, by design
func (s *Split) IssueReadPath(idxs []uint64) error {
	var path [][]byte
	if n := len(s.free); n > 0 {
		path, s.free = s.free[n-1], s.free[:n-1]
	}
	for len(path) < len(idxs) {
		path = append(path, nil)
	}
	path = path[:len(idxs)]
	for i, idx := range idxs {
		if s.Trace != nil {
			s.Trace(bucketwire.OpReadPath, idx)
		}
		if b := s.Peek(idx); b == nil {
			path[i] = nil
		} else {
			path[i] = append(path[i][:0], b...)
			if path[i] == nil {
				path[i] = []byte{} // present but empty is not absent
			}
		}
	}
	s.issued = append(s.issued, path)
	select {
	case s.signal <- struct{}{}:
	default:
	}
	return nil
}

// CompleteReadPath implements mem.SplitPathReader. The returned slices stay
// valid until the next completion.
//
//oram:offhotpath test double, not a serving path
func (s *Split) CompleteReadPath(idxs []uint64, out [][]byte) error {
	if len(s.issued) == 0 {
		return fmt.Errorf("memtest: no path read in flight to complete: %w", mem.ErrIO)
	}
	path := s.issued[0]
	s.issued = s.issued[:copy(s.issued, s.issued[1:])]
	if len(path) != len(idxs) {
		return fmt.Errorf("memtest: completing %d buckets of a %d-bucket read: %w", len(idxs), len(path), mem.ErrIO)
	}
	for i := range path {
		out[i] = path[i]
	}
	s.free = append(s.free, path)
	return nil
}

// ReadReady implements mem.SplitPathReader: a capture is ready at once.
func (s *Split) ReadReady() bool { return len(s.issued) > 0 }

// ReadSignal implements mem.SplitPathReader.
func (s *Split) ReadSignal() <-chan struct{} { return s.signal }

// WritePath implements mem.PathWriter, tapped.
//
//oram:offhotpath test double, not a serving path
func (s *Split) WritePath(idxs []uint64, data [][]byte) error {
	if s.Trace != nil {
		for _, idx := range idxs {
			s.Trace(bucketwire.OpWritePath, idx)
		}
	}
	return s.Store.WritePath(idxs, data)
}

// Equal reports whether two memories hold the same buckets.
func Equal(a, b mem.Backend, buckets uint64) bool {
	for idx := uint64(0); idx < buckets; idx++ {
		if !bytes.Equal(a.Peek(idx), b.Peek(idx)) {
			return false
		}
	}
	return true
}

var (
	_ mem.Backend         = (*Split)(nil)
	_ mem.SplitPathReader = (*Split)(nil)
)
