package stash

import (
	"slices"
	"testing"

	"freecursive/internal/tree"
)

// FuzzStashMatchesModel drives Put, Get, Remove and EvictForPath from fuzz
// bytes against a plain map of the residents. After every step the stash
// must hold exactly the model's blocks, in ascending address order, and
// every *Block an earlier Get returned must still be the live block of its
// address. An eviction must pick what evictByLevel picks from a stash
// holding the model's blocks: same blocks, same levels, same slot order.
//
// The first byte picks the tree (L ∈ {1, 4, 14}, Z ∈ {1, 4}); then each
// step is an opcode byte and its operands. Addresses come from a small
// range, so replacements, misses and repeat removals are common.
func FuzzStashMatchesModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 0, 2, 0, 0})
	f.Add([]byte{0, 0, 16, 0, 0, 1, 16, 0, 16, 0, 1, 0, 3, 0, 1, 3, 0, 0, 0}) // Get, replace, evict around it
	f.Add([]byte{3, 0, 5, 1, 2, 0, 5, 3, 4, 1, 5, 2, 6, 0, 0, 3, 0, 0, 0})
	f.Add([]byte{5, 0, 1, 0xff, 0xff, 0, 2, 0, 1, 0, 3, 0x10, 0x20, 1, 2, 3, 7, 2, 1, 9, 0})
	f.Add([]byte{
		4, 0, 1, 1, 0, 0, 2, 1, 0, 0, 3, 1, 0, 0, 4, 1, 0, 0, 5, 1, 0,
		1, 2, 2, 3, 0, 0, 3, 0, 3, 0, 3, 0xff, 0, 4, 1, 6, 2, 0, 5,
	})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		g, err := tree.NewGeometry([]int{1, 4, 14}[in[0]%3], []int{1, 4}[in[0]/3%2], 8)
		if err != nil {
			t.Fatal(err)
		}
		in = in[1:]
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		leaf := func() uint64 { return (uint64(next())<<8 | uint64(next())) % g.Leaves() }

		s := New(0)
		model := map[uint64]Block{}
		held := map[uint64]*Block{} // pointers an earlier Get returned
		for step := 0; len(in) > 0; step++ {
			switch op := next() % 4; op {
			case 0: // Put
				a := uint64(next() % 32)
				b := Block{Addr: a, Leaf: leaf(), Data: []byte{byte(step)}}
				s.Put(b)
				model[a] = b
			case 1: // Get
				a := uint64(next() % 32)
				got, want := s.Get(a), model[a]
				if _, ok := model[a]; !ok {
					if got != nil {
						t.Fatalf("step %d: Get(%d) = %+v, the model holds nothing there", step, a, *got)
					}
					continue
				}
				if got == nil || !sameBlock(*got, want) {
					t.Fatalf("step %d: Get(%d) = %v, want %+v", step, a, got, want)
				}
				held[a] = got
			case 2: // Remove
				a := uint64(next() % 32)
				want, ok := model[a]
				got := s.Remove(a)
				if !ok {
					if got != nil {
						t.Fatalf("step %d: Remove(%d) = %+v, the model holds nothing there", step, a, *got)
					}
					continue
				}
				if got == nil || got.Addr != a || got.Leaf != want.Leaf || got.Data != nil {
					t.Fatalf("step %d: Remove(%d) = %v, want the recycled block of leaf %d", step, a, got, want.Leaf)
				}
				delete(model, a)
				delete(held, a)
			case 3: // EvictForPath
				pathLeaf := leaf()
				lo, hi := 0, 0
				if h := next(); h%2 == 1 {
					hi = int(h/2) % (g.L + 2)
					lo = int(next()) % (hi + 1)
				}
				ref := New(0)
				for _, b := range model {
					ref.Put(b)
				}
				got, want := s.EvictForPath(g, pathLeaf, lo, hi), evictByLevel(ref, g, pathLeaf, lo, hi)
				for lev := range want {
					if !slices.EqualFunc(got[lev], want[lev], sameBlock) {
						t.Fatalf("step %d: path %d hold [%d,%d) level %d: got %v, reference %v", step, pathLeaf, lo, hi, lev, got[lev], want[lev])
					}
					for _, b := range want[lev] {
						delete(model, b.Addr)
						delete(held, b.Addr)
					}
				}
			}

			addrs := make([]uint64, 0, len(model))
			for a := range model {
				addrs = append(addrs, a)
			}
			slices.Sort(addrs)
			if !slices.Equal(s.Addresses(), addrs) || s.Len() != len(model) {
				t.Fatalf("step %d: stash holds %v (Len %d), model %v", step, s.Addresses(), s.Len(), addrs)
			}
			blocks := s.Blocks()
			for i, a := range addrs {
				if b := model[a]; blocks[i].Addr != a || blocks[i].Leaf != b.Leaf || blocks[i].Data[0] != b.Data[0] {
					t.Fatalf("step %d: Blocks()[%d] = %+v, model %+v", step, i, blocks[i], b)
				}
			}
			for a, p := range held {
				if p.Addr != a || s.Get(a) != p || !sameBlock(*p, model[a]) {
					t.Fatalf("step %d: a block Get returned for %d now reads %+v", step, a, *p)
				}
			}
		}
	})
}

// sameBlock reports whether a and b are the same block: address, leaf and
// the very payload buffer.
func sameBlock(a, b Block) bool {
	return a.Addr == b.Addr && a.Leaf == b.Leaf && len(a.Data) == len(b.Data) &&
		(len(a.Data) == 0 || &a.Data[0] == &b.Data[0])
}
