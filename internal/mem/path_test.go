package mem

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// pathTranscript runs one fixed write-then-read script against an empty
// backend — through WritePath/ReadPath when batched, through per-bucket
// Write/Read loops otherwise — and returns everything observable about it:
// each hook invocation with the bytes it saw, the operation counters after
// each phase, and the bytes each read returned. The OnWrite hook tampers,
// so the transcript also shows that what lands is the hook's result.
func pathTranscript(t *testing.T, b Backend, batched bool) []string {
	t.Helper()
	var log []string
	note := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	b.SetOnWrite(func(idx uint64, data []byte) []byte {
		note("onwrite %d %q", idx, data)
		return append([]byte{'!'}, data...)
	})
	b.SetOnRead(func(idx uint64, data []byte) []byte {
		note("onread %d %q nil=%v", idx, data, data == nil)
		return data
	})

	widxs := []uint64{4, 0, 2} // unsorted on purpose: order is the caller's
	wdata := [][]byte{[]byte("four"), []byte("zero"), []byte("two")}
	if batched {
		if err := b.WritePath(widxs, wdata); err != nil {
			t.Fatal(err)
		}
	} else {
		for i, idx := range widxs {
			if err := b.Write(idx, wdata[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, d := range wdata {
		clear(d) // the caller owns its slices again
	}
	st := b.Stats()
	note("after writes: reads=%d writes=%d", st.Reads, st.Writes)

	ridxs := []uint64{4, 1, 0, 2} // bucket 1 was never written
	out := make([][]byte, len(ridxs))
	if batched {
		// Every out[i] must stay valid until the next operation.
		if err := b.ReadPath(ridxs, out); err != nil {
			t.Fatal(err)
		}
	} else {
		for i, idx := range ridxs {
			// A Read result is only valid until the next one.
			out[i] = bytes.Clone(mustRead(t, b, idx))
		}
	}
	for i, idx := range ridxs {
		note("read %d %q nil=%v", idx, out[i], out[i] == nil)
	}
	st = b.Stats()
	note("after reads: reads=%d writes=%d", st.Reads, st.Writes)
	return log
}

// TestPathOpsAreBucketLoops is the memory contract every layer above
// relies on: on every implementation ReadPath and WritePath are observably
// a loop of Read and Write in idxs order — same bytes (nil for a
// never-written bucket), hooks once per bucket in order, counters advancing
// per bucket, all ReadPath results valid at once, caller slices not
// retained. Both spellings of the script must produce the one transcript
// pinned here.
func TestPathOpsAreBucketLoops(t *testing.T) {
	want := []string{
		`onwrite 4 "four"`, `onwrite 0 "zero"`, `onwrite 2 "two"`,
		"after writes: reads=0 writes=3",
		`onread 4 "!four" nil=false`, `onread 1 "" nil=true`,
		`onread 0 "!zero" nil=false`, `onread 2 "!two" nil=false`,
		`read 4 "!four" nil=false`, `read 1 "" nil=true`,
		`read 0 "!zero" nil=false`, `read 2 "!two" nil=false`,
		"after reads: reads=4 writes=3",
	}
	for _, impl := range implementations {
		for _, batched := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/batched=%v", impl.name, batched), func(t *testing.T) {
				if got := pathTranscript(t, impl.open(t), batched); !slices.Equal(got, want) {
					t.Errorf("transcript:\n  %s\nwant:\n  %s",
						strings.Join(got, "\n  "), strings.Join(want, "\n  "))
				}
			})
		}
	}
}
