package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"unsafe"

	"freecursive/internal/tree"
)

// FileStore is a file-backed Backend: a fixed-slot bucket page file that
// persists sealed buckets across process restarts.
//
// On-disk format (all integers big-endian):
//
//	header (64 bytes):
//	  [0:8]   magic "FORAMBK1"
//	  [8:12]  format version (1)
//	  [12:16] tree leaf level L
//	  [16:20] bucket slots Z
//	  [20:24] block payload bytes
//	  [24:28] slot capacity in bytes (max sealed bucket size)
//	  [28:36] bucket count (2^(L+1)-1)
//	  [36:64] reserved (zero)
//	slot i at 64 + i*(4+slotBytes):
//	  [0:4]   sealed length (0 = never written)
//	  [4:...] sealed bucket, zero-padded to slotBytes
//
// The header records the tree geometry so a reopen with mismatched
// parameters fails loudly instead of serving misaligned slots. The file is
// preallocated sparse to its full size, so unwritten slots read as zeros
// (length 0 = absent) without consuming disk.
//
// The whole file is mapped shared at OpenFile and every bucket operation is
// a copy between that mapping and store-owned scratch: no system call per
// bucket, and written buckets sit in the kernel's page cache (where a second
// descriptor, or the adversary, sees them at once) until Sync, Close or the
// kernel's own write-back puts them on disk. The mapping is the only data
// path; a platform without one cannot open a FileStore.
//
// Torn or tampered slots are never turned into errors: a garbage length is
// clamped, a file found short at OpenFile is re-extended with absent
// buckets, and the bytes are handed to the layers above unjudged —
// decryption and PMMAC are the arbiters of bucket validity, exactly as for
// any other untrusted memory. A page the kernel cannot serve (see guard) is
// an ErrIO.
type FileStore struct {
	f         *os.File
	data      []byte // the page file, mapped shared; nil once closed
	geom      tree.Geometry
	slotBytes int
	buckets   uint64
	reads     uint64
	writes    uint64
	// readBuf is the reusable slotBytes-long buffer Read copies a bucket
	// into and returns a slice of (the Backend contract allows scratch):
	// the caller decrypts from it outside the fault guard, which a slice of
	// the mapping itself would not survive.
	readBuf []byte
	// pathBufs are the per-level buffers behind ReadPath: every bucket of a
	// path must stay valid simultaneously, so each level loads into its own
	// slotBytes-long buffer (grown to path length on first use, then reused).
	pathBufs [][]byte
}

// FileConfig parameterizes OpenFile.
type FileConfig struct {
	// Path is the bucket page file; created (with its size preallocated
	// sparse) if absent, validated against Geometry and SlotBytes if not.
	Path string
	// Geometry is the tree the file stores; Geometry.Buckets() slots are
	// allocated.
	Geometry tree.Geometry
	// SlotBytes is the slot capacity: the largest sealed bucket the
	// controller will ever write (see backend.SealedBucketBytes).
	SlotBytes int
	// Buckets overrides the slot count when nonzero. The default,
	// Geometry.Buckets(), is the Path ORAM tree's 2^(L+1)-1; backends with
	// a different untrusted layout (the bucket-hash hierarchy's flat level
	// regions) size the file themselves. The count is recorded in the
	// header, so a reopen under the wrong backend kind fails loudly.
	Buckets uint64
}

const (
	fileMagic     = "FORAMBK1"
	fileVersion   = 1
	fileHeaderLen = 64
	slotLenBytes  = 4
)

// OpenFile creates or reopens a bucket page file.
func OpenFile(cfg FileConfig) (*FileStore, error) {
	if cfg.Geometry.Z < 1 || cfg.Geometry.BlockBytes < 1 {
		//oramlint:allow errwrap construction-time misuse, never crosses the storage boundary at runtime
		return nil, fmt.Errorf("mem: invalid geometry %+v", cfg.Geometry)
	}
	if cfg.SlotBytes < 1 {
		//oramlint:allow errwrap construction-time misuse, never crosses the storage boundary at runtime
		return nil, fmt.Errorf("mem: slot size %d must be >= 1", cfg.SlotBytes)
	}
	f, err := os.OpenFile(cfg.Path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("mem: %w: %w", ErrIO, err)
	}
	buckets := cfg.Buckets
	if buckets == 0 {
		buckets = cfg.Geometry.Buckets()
	}
	s := &FileStore{
		f:         f,
		geom:      cfg.Geometry,
		slotBytes: cfg.SlotBytes,
		buckets:   buckets,
		readBuf:   make([]byte, cfg.SlotBytes),
	}
	if err := s.open(); err != nil {
		_ = s.release() // the open error is the one to report
		return nil, err
	}
	return s, nil
}

// open brings the file to its full size (a fresh one gets its header, an
// existing one is validated) and maps it.
func (s *FileStore) open() error {
	size := s.size()
	if int64(int(size)) != size {
		return fmt.Errorf("mem: a %d-byte page file does not fit this platform's address space: %w", size, ErrIO)
	}
	info, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("mem: %w: %w", ErrIO, err)
	}
	if info.Size() == 0 {
		err = s.init()
	} else {
		err = s.reopen()
	}
	if err != nil {
		return err
	}
	if s.data, err = mapFile(s.f, int(size)); err != nil {
		return fmt.Errorf("mem: mapping %s: %w: %w", s.f.Name(), ErrIO, err)
	}
	return nil
}

func (s *FileStore) size() int64 {
	return fileHeaderLen + int64(s.buckets)*int64(slotLenBytes+s.slotBytes)
}

func (s *FileStore) init() error {
	hdr := make([]byte, fileHeaderLen)
	copy(hdr, fileMagic)
	binary.BigEndian.PutUint32(hdr[8:12], fileVersion)
	binary.BigEndian.PutUint32(hdr[12:16], uint32(s.geom.L))
	binary.BigEndian.PutUint32(hdr[16:20], uint32(s.geom.Z))
	binary.BigEndian.PutUint32(hdr[20:24], uint32(s.geom.BlockBytes))
	binary.BigEndian.PutUint32(hdr[24:28], uint32(s.slotBytes))
	binary.BigEndian.PutUint64(hdr[28:36], s.buckets)
	if _, err := s.f.WriteAt(hdr, 0); err != nil {
		return fmt.Errorf("mem: writing header: %w: %w", ErrIO, err)
	}
	if err := s.f.Truncate(s.size()); err != nil {
		return fmt.Errorf("mem: preallocating %d bytes: %w: %w", s.size(), ErrIO, err)
	}
	return nil
}

// reopen validates the header against the configured geometry and
// re-extends a torn file.
func (s *FileStore) reopen() error {
	hdr := make([]byte, fileHeaderLen)
	if _, err := io.ReadFull(io.NewSectionReader(s.f, 0, fileHeaderLen), hdr); err != nil {
		return fmt.Errorf("mem: reading header: %w: %w", ErrIO, err)
	}
	if string(hdr[:8]) != fileMagic {
		return fmt.Errorf("mem: %s is not a bucket page file: %w", s.f.Name(), ErrIO)
	}
	if v := binary.BigEndian.Uint32(hdr[8:12]); v != fileVersion {
		return fmt.Errorf("mem: bucket file version %d, want %d: %w", v, fileVersion, ErrIO)
	}
	gotL := int(binary.BigEndian.Uint32(hdr[12:16]))
	gotZ := int(binary.BigEndian.Uint32(hdr[16:20]))
	gotB := int(binary.BigEndian.Uint32(hdr[20:24]))
	gotSlot := int(binary.BigEndian.Uint32(hdr[24:28]))
	gotBuckets := binary.BigEndian.Uint64(hdr[28:36])
	if gotL != s.geom.L || gotZ != s.geom.Z || gotB != s.geom.BlockBytes ||
		gotSlot != s.slotBytes || gotBuckets != s.buckets {
		return fmt.Errorf("mem: bucket file geometry L=%d Z=%d B=%d slot=%d buckets=%d "+
			"does not match configured L=%d Z=%d B=%d slot=%d buckets=%d: %w",
			gotL, gotZ, gotB, gotSlot, gotBuckets,
			s.geom.L, s.geom.Z, s.geom.BlockBytes, s.slotBytes, s.buckets, ErrIO)
	}
	// A file truncated below its full size (a torn run) is re-extended: the
	// missing region reads as zero lengths, i.e. absent buckets, which the
	// integrity layer treats like any other deletion.
	if info, err := s.f.Stat(); err == nil && info.Size() < s.size() {
		if err := s.f.Truncate(s.size()); err != nil {
			return fmt.Errorf("mem: re-extending torn file: %w: %w", ErrIO, err)
		}
	}
	return nil
}

func (s *FileStore) slotOff(idx uint64) int64 {
	return fileHeaderLen + int64(idx)*int64(slotLenBytes+s.slotBytes)
}

// slot returns bucket idx's slot in the mapping: length prefix, then
// slotBytes of payload. Touching the returned bytes can fault, so callers
// run under guard.
func (s *FileStore) slot(idx uint64) ([]byte, error) {
	if s.data == nil {
		return nil, fmt.Errorf("mem: %s is closed: %w", s.f.Name(), ErrIO)
	}
	if idx >= s.buckets {
		return nil, fmt.Errorf("mem: bucket %d out of range [0,%d): %w", idx, s.buckets, ErrIO)
	}
	off := s.slotOff(idx)
	return s.data[off : off+int64(slotLenBytes+s.slotBytes)], nil
}

// guard makes a fault in the mapping an error. Every operation that touches
// the mapping defers it once, handing over the setting it replaced:
//
//	defer s.guard(debug.SetPanicOnFault(true), &err)
//
// A page of a shared file mapping faults (SIGBUS) when the file was
// truncated underneath it, when the disk is full and the page is a hole, or
// when the device fails to page it in: what pread and pwrite report as
// errors. The Backend contract wants those as ErrIO — never a dead process,
// never a garbage bucket — and guard is where they become one.
func (s *FileStore) guard(old bool, err *error) {
	debug.SetPanicOnFault(old)
	if r := recover(); r != nil {
		*err = faultErr(r, s.data)
	}
}

// faultErr turns the panic of a memory fault whose address lies inside
// mapping into an error wrapping ErrIO. Anything else — a fault elsewhere, a
// bounds or nil-pointer panic — is a bug and panics on.
func faultErr(r any, mapping []byte) error {
	switch fault := r.(type) {
	case interface {
		runtime.Error
		Addr() uintptr
	}:
		// An address below the mapping wraps around to a huge offset.
		off := fault.Addr() - uintptr(unsafe.Pointer(unsafe.SliceData(mapping)))
		if off < uintptr(len(mapping)) {
			return fmt.Errorf("mem: fault at page file offset %d (file truncated, disk full or device error): %w", off, ErrIO)
		}
	}
	panic(r)
}

// loadInto copies bucket idx out of the mapping into buf (slotBytes long),
// clamping a tampered length. The returned slice aliases buf; nil means
// absent.
func (s *FileStore) loadInto(idx uint64, buf []byte) ([]byte, error) {
	slot, err := s.slot(idx)
	if err != nil {
		return nil, err
	}
	length := int(binary.BigEndian.Uint32(slot))
	if length > s.slotBytes {
		length = s.slotBytes // tampered length: serve what the slot holds
	}
	if length == 0 {
		return nil, nil
	}
	n := copy(buf, slot[slotLenBytes:slotLenBytes+length])
	return buf[:n], nil
}

// store copies data into bucket idx's slot; nil data clears it (the length
// goes to zero, the old payload bytes stay). data is not retained.
func (s *FileStore) store(idx uint64, data []byte) error {
	slot, err := s.slot(idx)
	if err != nil {
		return err
	}
	if len(data) > s.slotBytes {
		return fmt.Errorf("mem: sealed bucket %d is %dB, slot holds %dB: %w", idx, len(data), s.slotBytes, ErrIO)
	}
	binary.BigEndian.PutUint32(slot, uint32(len(data)))
	copy(slot[slotLenBytes:], data)
	return nil
}

// Read implements Backend. The returned slice is store-owned scratch, valid
// only until the next operation on this store.
func (s *FileStore) Read(idx uint64) (data []byte, err error) {
	defer s.guard(debug.SetPanicOnFault(true), &err)
	s.reads++
	return s.loadInto(idx, s.readBuf)
}

// Write implements Backend; nil data deletes the bucket.
func (s *FileStore) Write(idx uint64, data []byte) (err error) {
	defer s.guard(debug.SetPanicOnFault(true), &err)
	s.writes++
	return s.store(idx, data)
}

// Stats implements Backend. Bytes reports the preallocated file size.
func (s *FileStore) Stats() Stats {
	return Stats{Reads: s.reads, Writes: s.writes, Bytes: uint64(s.size())}
}

// Geometry returns the tree geometry recorded in the file header.
func (s *FileStore) Geometry() tree.Geometry { return s.geom }

// Path returns the backing file's path.
func (s *FileStore) Path() string { return s.f.Name() }

// Sync flushes written buckets to stable storage: the mapping's dirty pages,
// then the descriptor.
func (s *FileStore) Sync() error {
	if s.data == nil {
		return fmt.Errorf("mem: %s is closed: %w", s.f.Name(), ErrIO)
	}
	if err := flushMap(s.data); err != nil {
		return fmt.Errorf("mem: flushing %s: %w: %w", s.f.Name(), ErrIO, err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("mem: %w: %w", ErrIO, err)
	}
	return nil
}

// Close syncs, unmaps and closes the backing file. Every later operation
// but Close fails with ErrIO.
func (s *FileStore) Close() error {
	if s.data == nil {
		return nil
	}
	return errors.Join(s.Sync(), s.release())
}

// release unmaps (if mapped) and closes the page file without syncing.
func (s *FileStore) release() error {
	var err error
	if s.data != nil {
		err = unmapFile(s.data)
		s.data = nil
	}
	if err = errors.Join(err, s.f.Close()); err != nil {
		return fmt.Errorf("mem: releasing %s: %w: %w", s.f.Name(), ErrIO, err)
	}
	return nil
}

var _ Backend = (*FileStore)(nil)
