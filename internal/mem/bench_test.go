package mem

import (
	"path/filepath"
	"testing"

	"freecursive/internal/tree"
)

// Raw backend cost per bucket operation, isolated from the ORAM controller:
// the map backend is the floor, the file backend adds a copy to or from the
// mapped page file.

const benchSlot = 4096

func benchWrite(b *testing.B, s Backend) {
	b.Helper()
	data := make([]byte, benchSlot)
	buckets := testGeom(b).Buckets()
	b.SetBytes(benchSlot)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Write(uint64(i)%buckets, data); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRead(b *testing.B, s Backend) {
	b.Helper()
	data := make([]byte, benchSlot)
	buckets := testGeom(b).Buckets()
	for idx := uint64(0); idx < buckets; idx++ {
		if err := s.Write(idx, data); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(benchSlot)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Read(uint64(i) % buckets); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFile(b *testing.B, g tree.Geometry, slotBytes int) *FileStore {
	b.Helper()
	fs, err := OpenFile(FileConfig{Path: filepath.Join(b.TempDir(), "buckets"), Geometry: g, SlotBytes: slotBytes})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { fs.Close() })
	return fs
}

func BenchmarkWriteMap(b *testing.B)  { benchWrite(b, NewStore()) }
func BenchmarkWriteFile(b *testing.B) { benchWrite(b, benchFile(b, testGeom(b), benchSlot)) }

func BenchmarkReadMap(b *testing.B)  { benchRead(b, NewStore()) }
func BenchmarkReadFile(b *testing.B) { benchRead(b, benchFile(b, testGeom(b), benchSlot)) }

// The two shapes the bucket-hash backend issues against its memory: an
// access probes one slot per level (8 scattered slots), a rebuild step
// streams a chunk of a level (32 consecutive ones). One op is one path call;
// slots are the size that backend seals at the default 64-byte block. The
// in-process store is the floor under the page file.

const benchPathSlot = 384

func scatteredSlots(buckets uint64) []uint64 {
	idxs := make([]uint64, 8)
	for i := range idxs {
		idxs[i] = uint64(i) * 2654435761 % buckets
	}
	return idxs
}

func consecutiveSlots(buckets uint64) []uint64 {
	idxs := make([]uint64, 32)
	for i := range idxs {
		idxs[i] = buckets/3 + uint64(i)
	}
	return idxs
}

func benchPath(b *testing.B, file bool, slots func(uint64) []uint64, read bool) {
	b.Helper()
	g, err := tree.NewGeometry(10, 2, 16)
	if err != nil {
		b.Fatal(err)
	}
	var st Backend = NewStore()
	if file {
		st = benchFile(b, g, benchPathSlot)
	}
	idxs := slots(g.Buckets())
	data := make([][]byte, len(idxs))
	for i := range data {
		data[i] = make([]byte, benchPathSlot)
	}
	out := make([][]byte, len(idxs))
	if err := st.WritePath(idxs, data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(idxs)) * benchPathSlot)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if read {
			err = st.ReadPath(idxs, out)
		} else {
			err = st.WritePath(idxs, data)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadPathFile(b *testing.B) {
	b.Run("scattered8", func(b *testing.B) { benchPath(b, true, scatteredSlots, true) })
	b.Run("consecutive32", func(b *testing.B) { benchPath(b, true, consecutiveSlots, true) })
}

func BenchmarkWritePathFile(b *testing.B) {
	b.Run("scattered8", func(b *testing.B) { benchPath(b, true, scatteredSlots, false) })
	b.Run("consecutive32", func(b *testing.B) { benchPath(b, true, consecutiveSlots, false) })
}

func BenchmarkReadPathMap(b *testing.B) {
	b.Run("scattered8", func(b *testing.B) { benchPath(b, false, scatteredSlots, true) })
	b.Run("consecutive32", func(b *testing.B) { benchPath(b, false, consecutiveSlots, true) })
}

func BenchmarkWritePathMap(b *testing.B) {
	b.Run("scattered8", func(b *testing.B) { benchPath(b, false, scatteredSlots, false) })
	b.Run("consecutive32", func(b *testing.B) { benchPath(b, false, consecutiveSlots, false) })
}
