package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"freecursive/client"
	"freecursive/internal/backend"
	"freecursive/internal/mem"
)

// Tracing records spans from this directory only: decorators around the
// calls into each layer, never code inside the program. A traced run is
// separate from the measured one (end-to-end metrics are always taken with
// tracing off) and runs one round per stage:
//
//	client stage   client.do -> client.roundtrip      (network workloads)
//	store stage    store.access                       (SubmitBatch -> Wait)
//	replica stage  core.access -> backend.access -> mem.readpath/writepath
//
// store has no injection point below it, so the replica stage drives a
// hand-assembled single-shard copy of core.Build (replica.go) with one
// shard's share of the same op stream.

// span is one timed call. Parent indexes the span that caused it (-1 for a
// root); spans of one request share Req.
type span struct {
	Name   string
	Start  int64 // ns since the tracer's epoch
	End    int64
	Parent int32
	Req    uint64
}

// tracer is an in-memory span buffer, preallocated so recording does not
// allocate; spans past its capacity are counted, not kept.
type tracer struct {
	mu      sync.Mutex
	on      bool
	epoch   time.Time
	spans   []span
	dropped int
	nextReq uint64
	stack   []int32                   // open spans of the single-threaded replica stage
	merged  int32                     // span that extend last grew, -1 if none
	byOps   map[*client.BatchOp]int32 // client.do span by the batch Do was handed
}

const maxSpans = 1 << 20

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, maxSpans), merged: -1, byOps: map[*client.BatchOp]int32{}}
}

func (t *tracer) begin(name string, parent int32, req uint64) int32 {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

// end closes span id. It is a no-op on a nil or disabled tracer and for the
// -1 that begin returns when nothing was recorded.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// beginRoot opens the root span of one client call: client.do when the call
// goes through the network client (first is then the batch's first op, by
// which the transport decorator finds its parent), store.access otherwise.
func (t *tracer) beginRoot(viaClient bool, first *client.BatchOp) int32 {
	if t == nil || !t.on {
		return -1
	}
	t.mu.Lock()
	t.nextReq++
	req := t.nextReq
	t.mu.Unlock()
	if !viaClient {
		return t.begin("store.access", -1, req)
	}
	id := t.begin("client.do", -1, req)
	t.mu.Lock()
	t.byOps[first] = id
	t.mu.Unlock()
	return id
}

// push opens a child of the innermost open span of the replica stage, which
// is single-threaded, so a stack names the parent. t.on must not change
// while a span is open.
func (t *tracer) push(name string) {
	if !t.on {
		return
	}
	parent, req := int32(-1), uint64(0)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	if parent >= 0 {
		req = t.spans[parent].Req
	} else {
		t.nextReq++
		req = t.nextReq
	}
	t.stack = append(t.stack, t.begin(name, parent, req))
}

// extend records a per-bucket call that began at start and ends now. A path
// or rebuild chunk written bucket by bucket makes dozens of them per
// access, so calls of one name under one parent are merged into a single
// span whose length is their summed duration: self-time arithmetic stays
// exact and the buffer holds a whole round.
func (t *tracer) extend(name string, start time.Time) {
	if !t.on {
		return
	}
	d := int64(time.Since(start))
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	if m := t.merged; m >= 0 && t.spans[m].Parent == parent && t.spans[m].Name == name && parent >= 0 {
		t.spans[m].End += d
		return
	}
	t.push(name)
	t.merged = t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	if t.merged >= 0 {
		sp := &t.spans[t.merged]
		sp.Start = int64(start.Sub(t.epoch))
		sp.End = sp.Start + d
	}
}

func (t *tracer) pop() {
	if !t.on {
		return
	}
	n := len(t.stack) - 1
	t.end(t.stack[n])
	t.stack = t.stack[:n]
}

// layerTime is what the spans of one name add up to.
type layerTime struct {
	count int
	total int64 // sum of durations, ns
	self  int64 // total minus the part covered by child spans
	lat   hist  // per-span durations
}

// selfTimes folds spans[from:] by name. A span's self time is its duration
// minus its direct children's durations (children run inside their parent
// and never overlap each other here: every layer calls down synchronously).
func selfTimes(spans []span, from int) map[string]*layerTime {
	out := map[string]*layerTime{}
	get := func(name string) *layerTime {
		lt := out[name]
		if lt == nil {
			lt = &layerTime{}
			out[name] = lt
		}
		return lt
	}
	for _, s := range spans[from:] {
		d := s.End - s.Start
		lt := get(s.Name)
		lt.count++
		lt.total += d
		lt.self += d
		lt.lat.add(d)
		if s.Parent >= int32(from) {
			get(spans[s.Parent].Name).self -= d
		}
	}
	return out
}

// writeSpans writes the first limit spans as JSON, one span per line.
func (t *tracer) writeSpans(path string, limit int) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	n := min(limit, len(t.spans))
	fmt.Fprintf(w, "{\"spans_recorded\": %d, \"spans_dropped\": %d, \"spans_written\": %d, \"spans\": [\n", len(t.spans), t.dropped, n)
	for i, s := range t.spans[:n] {
		sep := ","
		if i == n-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"id\": %d, \"name\": %q, \"start_ns\": %d, \"end_ns\": %d, \"parent\": %d, \"req\": %d}%s\n",
			i, s.Name, s.Start, s.End, s.Parent, s.Req, sep)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- decorators -----------------------------------------------------------------

// timedTransport spans client.Transport.RoundTrip and counts round trips.
type timedTransport struct {
	client.Transport
	tr *tracer
}

func (t *timedTransport) RoundTrip(ctx context.Context, ops []client.BatchOp) ([]client.OpResult, error) {
	if !t.tr.on {
		return t.Transport.RoundTrip(ctx, ops)
	}
	t.tr.mu.Lock()
	parent, ok := t.tr.byOps[&ops[0]]
	req := uint64(0)
	if ok {
		req = t.tr.spans[parent].Req
	} else {
		parent = -1
	}
	t.tr.mu.Unlock()
	id := t.tr.begin("client.roundtrip", parent, req)
	res, err := t.Transport.RoundTrip(ctx, ops)
	t.tr.end(id)
	return res, err
}

// timedBackend spans backend.Backend.Access and, when the backend has
// maintenance, Maintain.
type timedBackend struct {
	backend.Backend
	tr *tracer
}

func (b *timedBackend) Access(req backend.Request) (backend.Result, error) {
	b.tr.push("backend.access")
	res, err := b.Backend.Access(req)
	b.tr.pop()
	return res, err
}

// maintain drains queued maintenance in idle-time quanta, as the store's
// owner goroutine does between requests: on one processor the owner keeps
// the CPU until nothing is pending, so the next request finds none.
func (b *timedBackend) maintain() error {
	m, ok := b.Backend.(backend.Maintainer)
	if !ok || !m.MaintainPending() {
		return nil
	}
	b.tr.push("backend.maintain")
	defer b.tr.pop()
	for pending := true; pending; {
		var err error
		if pending, err = m.Maintain(0); err != nil {
			return err
		}
	}
	return nil
}

// timedMem spans every call into a mem.Backend and counts blocking calls (a
// remote memory's round trips). It offers ReadPath, which every memory in
// the repository has; timedPathWriter adds WritePath for those that have it,
// so the backend above takes the same path it takes undecorated.
type timedMem struct {
	mem.Backend
	pr       mem.PathReader
	tr       *tracer
	blocking int // Read, Write and ReadPath calls: each waits for its reply
}

type timedPathWriter struct {
	*timedMem
	pw mem.PathWriter
}

func newTimedMem(m mem.Backend, tr *tracer) (mem.Backend, *timedMem, error) {
	pr, ok := m.(mem.PathReader)
	if !ok {
		return nil, nil, fmt.Errorf("bench: %T lacks batched path reads", m)
	}
	tm := &timedMem{Backend: m, pr: pr, tr: tr}
	if pw, ok := m.(mem.PathWriter); ok {
		return &timedPathWriter{timedMem: tm, pw: pw}, tm, nil
	}
	return tm, tm, nil
}

func (m *timedMem) Read(idx uint64) ([]byte, error) {
	m.blocking++
	start := time.Now()
	b, err := m.Backend.Read(idx)
	m.tr.extend("mem.read", start)
	return b, err
}

func (m *timedMem) Write(idx uint64, data []byte) error {
	m.blocking++
	start := time.Now()
	err := m.Backend.Write(idx, data)
	m.tr.extend("mem.write", start)
	return err
}

func (m *timedMem) ReadPath(idxs []uint64, out [][]byte) error {
	m.blocking++
	m.tr.push("mem.readpath")
	err := m.pr.ReadPath(idxs, out)
	m.tr.pop()
	return err
}

func (m *timedPathWriter) WritePath(idxs []uint64, data [][]byte) error {
	m.tr.push("mem.writepath")
	err := m.pw.WritePath(idxs, data)
	m.tr.pop()
	return err
}
