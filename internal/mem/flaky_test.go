package mem

import (
	"bytes"
	"errors"
	"testing"
)

// TestFlakyDeterministicSchedule pins that FailEvery fails exactly the
// scheduled operations, that the failures wrap ErrIO, and that the backend
// keeps working between them.
func TestFlakyDeterministicSchedule(t *testing.T) {
	f := WithFaults(NewStore(), FlakyConfig{FailEvery: 3})
	for op := 1; op <= 9; op++ {
		err := f.Write(uint64(op), []byte{byte(op)})
		if op%3 == 0 {
			if !errors.Is(err, ErrIO) {
				t.Fatalf("op %d: err %v, want ErrIO", op, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("op %d: unexpected %v", op, err)
		}
	}
	// Failed writes must not have reached storage.
	if got := f.Peek(3); got != nil {
		t.Errorf("failed write landed: bucket 3 = %q", got)
	}
	if got := f.Peek(4); got == nil {
		t.Errorf("successful write missing: bucket 4")
	}
	if f.Ops() != 9 {
		t.Errorf("Ops() = %d, want 9", f.Ops())
	}
}

// TestFlakyProbabilisticSeeded pins that ErrProb injection is reproducible
// for a fixed seed.
func TestFlakyProbabilisticSeeded(t *testing.T) {
	run := func() []int {
		f := WithFaults(NewStore(), FlakyConfig{Seed: 42, ErrProb: 0.3})
		var failed []int
		for op := 0; op < 50; op++ {
			if _, err := f.Read(uint64(op)); err != nil {
				failed = append(failed, op)
			}
		}
		return failed
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 50 {
		t.Fatalf("degenerate schedule: %d/50 failures", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("schedules differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules differ at %d: %v vs %v", i, a, b)
		}
	}
}

// TestFlakyPartialPath pins the mid-path failure shape: a failed ReadPath
// with PartialPath serves exactly the leading buckets before erroring, so
// callers that absorb any prefix of a failed path read are caught.
func TestFlakyPartialPath(t *testing.T) {
	st := NewStore()
	for idx := uint64(0); idx < 4; idx++ {
		if err := st.Write(idx, []byte{byte(idx)}); err != nil {
			t.Fatal(err)
		}
	}
	f := WithFaults(st, FlakyConfig{FailEvery: 1, PartialPath: 2})
	out := make([][]byte, 4)
	sentinel := []byte("stale")
	out[2], out[3] = sentinel, sentinel

	err := f.ReadPath([]uint64{0, 1, 2, 3}, out)
	if !errors.Is(err, ErrIO) {
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
}

// bouncer is a Backend stub whose Bounce calls are counted.
type bouncer struct {
	Backend
	bounces int
}

func (b *bouncer) Bounce() error { b.bounces++; return nil }

// TestFlakyDisconnect pins that DisconnectEvery bounces the inner
// transport on schedule and the operation itself still succeeds.
func TestFlakyDisconnect(t *testing.T) {
	inner := &bouncer{Backend: NewStore()}
	f := WithFaults(inner, FlakyConfig{DisconnectEvery: 2})
	for op := 1; op <= 6; op++ {
		if err := f.Write(uint64(op), []byte{1}); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	if inner.bounces != 3 {
		t.Errorf("bounces = %d, want 3", inner.bounces)
	}
}
