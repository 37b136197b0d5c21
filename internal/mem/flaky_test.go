package mem_test

// The fault modes of the memtest decorator, each on its own, and the one
// window-fault test that needs one over a live connection.

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"freecursive/internal/bucketd"
	"freecursive/internal/mem"
	"freecursive/internal/mem/memtest"
)

// faulty wraps a fresh map store with schedule s.
func faulty(s memtest.Schedule) *memtest.Mem {
	m := memtest.Wrap(mem.NewStore())
	m.Schedule = s
	return m
}

// TestFlakyDeterministicSchedule pins that FailEvery fails exactly the
// scheduled operations, that the failures wrap ErrIO, and that the memory
// keeps working between them.
func TestFlakyDeterministicSchedule(t *testing.T) {
	f := faulty(memtest.Schedule{FailEvery: 3})
	for op := 1; op <= 9; op++ {
		err := f.Write(uint64(op), []byte{byte(op)})
		if op%3 == 0 {
			if !errors.Is(err, mem.ErrIO) {
				t.Fatalf("op %d: err %v, want ErrIO", op, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("op %d: unexpected %v", op, err)
		}
	}
	// Failed writes must not have reached storage.
	if got := mustRead(t, f.Backend, 3); got != nil {
		t.Errorf("failed write landed: bucket 3 = %q", got)
	}
	if got := mustRead(t, f.Backend, 4); got == nil {
		t.Errorf("successful write missing: bucket 4")
	}
	if f.Ops != 9 {
		t.Errorf("Ops = %d, want 9", f.Ops)
	}
}

// TestFlakyProbabilisticSeeded pins that ErrProb injection fails the same
// operation indices on a re-run with the same seed, and others under
// another seed.
func TestFlakyProbabilisticSeeded(t *testing.T) {
	run := func(seed uint64) []int {
		f := faulty(memtest.Schedule{Seed: seed, ErrProb: 0.3})
		var failed []int
		for op := 0; op < 50; op++ {
			if _, err := f.Read(uint64(op)); err != nil {
				failed = append(failed, op)
			}
		}
		return failed
	}
	a, b := run(42), run(42)
	if len(a) == 0 || len(a) == 50 {
		t.Fatalf("degenerate schedule: %d/50 failures", len(a))
	}
	if !slices.Equal(a, b) {
		t.Fatalf("schedules differ: %v vs %v", a, b)
	}
	if slices.Equal(a, run(43)) {
		t.Fatalf("seeds 42 and 43 fail the same operations %v", a)
	}
}

// TestFlakyPartialPath pins the mid-path failure shape: a failed ReadPath
// with PartialPath serves exactly the leading buckets before erroring, so
// callers that absorb any prefix of a failed path read are caught.
func TestFlakyPartialPath(t *testing.T) {
	f := faulty(memtest.Schedule{FailEvery: 5, PartialPath: 2})
	for idx := uint64(0); idx < 4; idx++ {
		mustWrite(t, f, idx, []byte{byte(idx)})
	}
	out := make([][]byte, 4)
	sentinel := []byte("stale")
	out[2], out[3] = sentinel, sentinel

	err := f.ReadPath([]uint64{0, 1, 2, 3}, out)
	if !errors.Is(err, mem.ErrIO) {
		t.Fatalf("err %v, want ErrIO", err)
	}
	for i := 0; i < 2; i++ {
		if !bytes.Equal(out[i], []byte{byte(i)}) {
			t.Errorf("prefix bucket %d not served: %q", i, out[i])
		}
	}
	for i := 2; i < 4; i++ {
		if !bytes.Equal(out[i], sentinel) {
			t.Errorf("suffix bucket %d was touched: %q", i, out[i])
		}
	}
	if st := f.Stats(); st.Reads != 2 {
		t.Errorf("memory served %d bucket reads, want the 2 of the prefix", st.Reads)
	}
}

// bouncer is a memory whose Bounce calls are counted.
type bouncer struct {
	mem.Backend
	bounces int
}

func (b *bouncer) Bounce() error { b.bounces++; return nil }

// TestFlakyDisconnect pins that DisconnectEvery bounces the memory's
// transport on schedule and the operation itself still succeeds.
func TestFlakyDisconnect(t *testing.T) {
	inner := &bouncer{Backend: mem.NewStore()}
	f := memtest.Wrap(inner)
	f.Schedule.DisconnectEvery = 2
	for op := 1; op <= 6; op++ {
		if err := f.Write(uint64(op), []byte{1}); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	if inner.bounces != 3 {
		t.Errorf("bounces = %d, want 3", inner.bounces)
	}
}

// TestFlakyArmed pins the toggles: armed, every data operation fails
// without reaching the memory; armed for writes, only writes do; disarmed,
// everything passes again.
func TestFlakyArmed(t *testing.T) {
	f := memtest.Wrap(mem.NewStore())
	f.Armed = true
	if err := f.Write(1, []byte{1}); !errors.Is(err, mem.ErrIO) {
		t.Fatalf("armed write: %v, want ErrIO", err)
	}
	if _, err := f.Read(1); !errors.Is(err, mem.ErrIO) {
		t.Fatalf("armed read: %v, want ErrIO", err)
	}
	if err := f.ReadPath([]uint64{1}, make([][]byte, 1)); !errors.Is(err, mem.ErrIO) {
		t.Fatalf("armed path read: %v, want ErrIO", err)
	}
	f.Armed, f.ArmedWrites = false, true
	if err := f.WritePath([]uint64{1}, [][]byte{{1}}); !errors.Is(err, mem.ErrIO) {
		t.Fatalf("armed path write: %v, want ErrIO", err)
	}
	if _, err := f.Read(1); err != nil {
		t.Fatalf("read with only writes armed: %v", err)
	}
	f.ArmedWrites = false
	mustWrite(t, f, 1, []byte{1})
	if st := f.Stats(); st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("memory saw %+v, want only the read and write made disarmed", st)
	}
	if f.Ops != 6 {
		t.Fatalf("Ops = %d, want 6", f.Ops)
	}
}

// TestFlakyCapture pins split-phase capture over a memory that cannot
// split: a read issued before a WritePath answers with the buckets as they
// were at issue, reads complete oldest first, and completing with nothing
// in flight fails.
func TestFlakyCapture(t *testing.T) {
	f := memtest.Wrap(mem.NewStore())
	if f.ReadSignal() != nil {
		t.Fatal("a map store claims split-phase reads")
	}
	f.Capture = true
	if f.ReadSignal() == nil {
		t.Fatal("capture does not split")
	}
	idxs, out := []uint64{0, 1}, make([][]byte, 2)
	if err := f.WritePath(idxs, [][]byte{[]byte("old"), {}}); err != nil {
		t.Fatal(err)
	}
	if err := f.IssueReadPath(idxs); err != nil {
		t.Fatal(err)
	}
	if err := f.WritePath(idxs, [][]byte{[]byte("new"), nil}); err != nil {
		t.Fatal(err)
	}
	if err := f.IssueReadPath(idxs); err != nil {
		t.Fatal(err)
	}
	for _, want := range [][]byte{[]byte("old"), []byte("new")} {
		if !f.ReadReady() {
			t.Fatal("a captured read is not ready")
		}
		if err := f.CompleteReadPath(idxs, out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out[0], want) {
			t.Fatalf("completed %q, want %q", out[0], want)
		}
	}
	if out[1] != nil {
		t.Fatalf("a deleted bucket completed as %q", out[1])
	}
	if err := f.CompleteReadPath(idxs, out); !errors.Is(err, mem.ErrIO) {
		t.Fatalf("completing nothing: %v, want ErrIO", err)
	}
}

// TestRemoteWindowFaultDisconnect drops the connection between R_B and W_A
// (the decorator bounces before the third data operation): B's read is lost
// with the connection, which latches — A's write-back fails, B's completion
// fails, and nothing is retried into a tree whose state is unknowable.
func TestRemoteWindowFaultDisconnect(t *testing.T) {
	addr := startBucketd(t, bucketd.Config{RTT: 20 * time.Millisecond})
	f := memtest.Wrap(dialTest(t, addr, "t/cut"))
	f.Schedule.DisconnectEvery = 3
	if f.ReadSignal() == nil {
		t.Fatal("the decorator over Remote does not forward split-phase reads")
	}
	a, b, out := []uint64{0, 1}, []uint64{0, 2}, make([][]byte, 2)
	if err := f.IssueReadPath(a); err != nil { // R_A
		t.Fatal(err)
	}
	if err := f.IssueReadPath(b); err != nil { // R_B
		t.Fatal(err)
	}
	if err := f.CompleteReadPath(a, out); err != nil {
		t.Fatal(err)
	}
	err := f.WritePath(a, [][]byte{{1}, {2}}) // W_A: the connection drops first
	if !errors.Is(err, mem.ErrIO) || !strings.Contains(err.Error(), "unanswered") {
		t.Fatalf("write-back across the disconnect: %v, want the latched lost-read fault", err)
	}
	if err := f.CompleteReadPath(b, out); !errors.Is(err, mem.ErrIO) {
		t.Fatalf("lost read: %v, want ErrIO", err)
	}
	if _, err := f.Read(0); !errors.Is(err, mem.ErrIO) {
		t.Fatalf("fault did not latch: %v", err)
	}
}
