package store

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"freecursive"
)

// This file is the store's asynchronous per-shard pipeline. Each shard is
// owned by exactly one goroutine — the goroutine IS the serialization, so
// the single-controller contract of freecursive.ORAM holds with no mutex
// on the access path. Callers feed the owner through a bounded queue and
// get a Future back; SubmitBatch and the blocking Get/Put all enter through
// Store.submit.
//
// The owner drains the queue in windows of up to coalesceWindow requests.
// Within a window, duplicate-address reads coalesce: the first read pays
// the physical ORAM access, later reads of the same address fan out the
// same value without touching the tree (a write to the address in between
// invalidates the window cache, preserving read-your-writes). This is the
// serving-layer analogue of the paper's PLB hit — a repeated address skips
// untrusted-memory traffic, and what the adversary learns is comparable to
// what any cache in front of an ORAM already reveals (§4.1): the store
// admits that *some* requests repeated, never which address they named.
//
// When the ORAM's memory is a round trip away (ORAM.Wake is non-nil) the
// owner also overlaps accesses: it starts the next queued request while
// earlier ones still wait for their path read, up to inFlightWindow of
// them, and finishes them in the order they started. A request therefore
// never queues behind another request's round trip. Whether two accesses
// overlap depends on when requests arrive and how full the queue is —
// timing the adversary already observes (§4.1) — never on an address.
//
// On such a shard a write is also *posted*: its future resolves as soon as
// its Start succeeds, not when its path read comes back. Start orders a
// write completely — the position map has advanced and the payload is
// sealed — and every access started after it sees it, so the caller's
// answer need not wait for the round trip that only finds and re-places
// the old copy. The window depth bounds how many posted writes a shard
// holds. Losing one is fail-stop: whatever error its Finish returns
// quarantines the shard, so no later operation — a read of the same
// address included — can answer with the value it replaced. Over local
// memory Start and Finish run back to back and a write resolves after
// Finish, errors and all.

// result is what a request resolves to.
type result struct {
	data []byte
	err  error
}

// Future is the pending outcome of one SubmitBatch operation. Wait blocks
// until the shard's owner goroutine resolves it; it may be called any
// number of times and from any goroutine, and always returns the same
// values.
type Future struct {
	ch   chan result
	once sync.Once
	res  result
}

// Wait blocks until the request completes and returns its result: the
// block's contents for a get, nil for a put, or an error. A put on a
// shard over remote memory completes once it is ordered, before its path
// read returns (see the pipeline notes above).
func (f *Future) Wait() ([]byte, error) {
	f.once.Do(func() { f.res = <-f.ch })
	return f.res.data, f.res.err
}

// newFuture returns an unresolved future.
func newFuture() *Future { return &Future{ch: make(chan result, 1)} }

// resolvedFuture returns a future that already carries its result —
// validation failures and fast-failed requests never visit a queue.
func resolvedFuture(data []byte, err error) *Future {
	f := newFuture()
	f.ch <- result{data: data, err: err}
	return f
}

// resolve completes the future. Each request is resolved exactly once, by
// the shard owner; the buffered channel makes it non-blocking.
func (f *Future) resolve(data []byte, err error) {
	f.ch <- result{data: data, err: err}
}

// request is one unit of work in a shard's queue: a data operation
// (read or write) carrying its future, or a control operation — a closure
// the owner runs with exclusive access to the ORAM. Control operations
// (stats, snapshots) execute even on a quarantined shard.
type request struct {
	write bool
	inner uint64 // in-shard address
	data  []byte // write payload; nil for reads
	fut   *Future
	fn    func(*freecursive.ORAM) // control operation; nil for data ops
}

// shard pairs one ORAM instance with the goroutine that owns it.
type shard struct {
	oram *freecursive.ORAM

	reqs chan request
	done chan struct{} // closed when the owner goroutine has exited

	// mu serializes submits against shutdown: senders hold it shared while
	// enqueueing, shutdown holds it exclusively to seal the queue. The
	// owner goroutine never takes it, so a full queue cannot deadlock.
	mu     sync.RWMutex
	closed bool

	health    health
	enqueued  atomic.Uint64
	coalesced atomic.Uint64
	// overlapped counts accesses started while another was in flight and
	// occupancy is the number in flight now. Like coalesced they are
	// functions of request arrival timing alone, so exporting them tells
	// the adversary nothing the wire's interleaving does not.
	overlapped atomic.Uint64
	occupancy  atomic.Int32

	// Owner-goroutine state. flights[first : first+flying] (mod its
	// length) are the accesses started and not finished, oldest first;
	// depth is how many there may be. cache is the coalescing window's
	// view of the addresses read in it.
	wake    <-chan struct{}
	depth   int
	flights [inFlightWindow]flight
	first   int
	flying  int
	cache   map[uint64]cached

	// finalStats is the ORAM's last counter snapshot, written by the owner
	// goroutine just before it exits (happens-before close(done)), so
	// ShardStats keeps working on a closed store.
	finalStats freecursive.Stats
}

// inFlightWindow is how many accesses a shard keeps in flight when its
// memory is a round trip away. It must not exceed the write-backs mem.Remote
// lets ride unacknowledged (8): every access in the window may have one.
const inFlightWindow = 4

// The queue and coalescing bounds are the same for every shard and not
// configurable.
const (
	// queueDepth bounds a shard's request queue; submits past it block
	// (backpressure).
	queueDepth = 64
	// coalesceWindow bounds how many already-queued requests the owner
	// goroutine drains and serves as one window; duplicate-address reads
	// within a window share one physical ORAM access.
	coalesceWindow = 32
)

// flight is one started access and the futures its Finish resolves.
type flight struct {
	req       request
	followers []*Future // reads of the same address coalesced onto it while in flight
}

// cached is the coalescing window's knowledge of one address: the value a
// read of it returned, or — while val is nil — which flight is reading it.
type cached struct {
	val  []byte
	slot int
}

func newShard(o *freecursive.ORAM) *shard {
	sh := &shard{
		oram:  o,
		reqs:  make(chan request, queueDepth),
		done:  make(chan struct{}),
		wake:  o.Wake(),
		depth: 1,
		cache: make(map[uint64]cached, coalesceWindow),
	}
	if sh.wake != nil {
		sh.depth = inFlightWindow
	}
	go sh.run()
	return sh
}

// submit enqueues a data request and returns its future. Quarantined
// shards fail fast without a queue round-trip; requests already queued
// when the quarantine latched are failed by the owner in order.
func (sh *shard) submit(req request) *Future {
	if sh.health.State() == StateQuarantined {
		return resolvedFuture(nil, sh.health.err())
	}
	req.fut = newFuture()
	if !sh.enqueue(req) {
		return resolvedFuture(nil, errClosed())
	}
	sh.enqueued.Add(1)
	return req.fut
}

// control enqueues fn to run on the owner goroutine with exclusive ORAM
// access. It reports false if the shard is already closed (fn will never
// run).
func (sh *shard) control(fn func(*freecursive.ORAM)) bool {
	return sh.enqueue(request{fn: fn})
}

// enqueue performs the guarded send. The send may block on a full queue;
// that is the pipeline's backpressure, and it is safe because the owner
// drains continuously and never takes sh.mu.
func (sh *shard) enqueue(req request) bool {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.closed {
		return false
	}
	sh.reqs <- req
	return true
}

// shutdown seals the queue: no new requests are accepted, the owner
// finishes the ones already queued and exits. Idempotent.
func (sh *shard) shutdown() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return
	}
	sh.closed = true
	sh.health.drain()
	close(sh.reqs)
}

// run is the owner goroutine: it drains the queue in windows and serves
// each window with read coalescing, keeping up to depth accesses in flight.
func (sh *shard) run() {
	batch := make([]request, 0, coalesceWindow)
	for open := true; open; {
		req, ok := sh.await()
		if !ok {
			break
		}
		batch = append(batch[:0], req)
		// Opportunistically drain whatever else is already queued, up to
		// the coalescing window, without blocking.
	fill:
		for len(batch) < coalesceWindow {
			select {
			case req, open = <-sh.reqs:
				if !open {
					break fill
				}
				batch = append(batch, req)
			default:
				break fill
			}
		}
		// The cache is cleared between windows so a resolved caller's view
		// can never go stale across them.
		clear(sh.cache)
		for _, req := range batch {
			sh.serve(req)
		}
	}
	sh.drain()
	sh.finalStats = sh.oram.Stats()
	close(sh.done)
}

// await blocks until a request arrives; it reports false once the queue is
// sealed and empty. While it waits it finishes in-flight accesses as their
// reads arrive, and with nothing in flight, the queue empty and deamortized
// backend maintenance queued (bucket-hash rebuild work) it runs bounded
// maintenance quanta — requests always preempt at quantum granularity, so
// rebuilds drain off the request path without ever blocking it.
func (sh *shard) await() (request, bool) {
	for {
		sh.finishReady()
		switch {
		case sh.flying > 0:
			select {
			case req, ok := <-sh.reqs:
				return req, ok
			case <-sh.wake:
			}
		case sh.maintainPending():
			select {
			case req, ok := <-sh.reqs:
				return req, ok
			default:
				sh.maintainStep()
			}
		default:
			req, ok := <-sh.reqs
			return req, ok
		}
	}
}

// serve handles one request of a drained window, in arrival order: it
// resolves it on the spot (control ops, a quarantined shard, a read the
// window already knows) or starts its ORAM access.
func (sh *shard) serve(req request) {
	sh.finishReady()
	switch {
	case req.fn != nil:
		// A control op has exclusive ORAM access — nothing in flight — and
		// may mutate state (snapshot restore hooks, test tampering); later
		// reads in the window must not be served from before it ran.
		sh.drain()
		req.fn(sh.oram)
		clear(sh.cache)
	case sh.health.State() == StateQuarantined:
		req.fut.resolve(nil, sh.health.err())
	case req.write:
		// The block changes; later reads in this window must pay a real
		// access (or coalesce among themselves afresh).
		delete(sh.cache, req.inner)
		sh.start(req)
	default:
		c, hit := sh.cache[req.inner]
		switch {
		case !hit:
			sh.start(req)
		case c.val != nil:
			sh.coalesced.Add(1)
			// Every waiter gets its own copy; the cached slice stays
			// canonical for the rest of the window.
			req.fut.resolve(bytes.Clone(c.val), nil)
		default:
			sh.coalesced.Add(1)
			fl := &sh.flights[c.slot]
			fl.followers = append(fl.followers, req.fut)
		}
	}
}

// start begins req's ORAM access, first finishing the oldest access in
// flight if the window is full. A read is entered in the window cache so
// that duplicates arriving before it finishes can wait on it; a write on a
// windowed shard is posted — its future resolves here.
func (sh *shard) start(req request) {
	for sh.flying == sh.depth {
		sh.finish()
	}
	if err := sh.oram.Start(req.inner, req.write, req.data); err != nil {
		req.fut.resolve(nil, sh.noteError(err))
		return
	}
	if req.write && sh.wake != nil {
		// Posted: the flight finishes without a future.
		req.fut.resolve(nil, nil)
		req.fut = nil
	}
	if sh.flying > 0 {
		sh.overlapped.Add(1)
	}
	slot := (sh.first + sh.flying) % len(sh.flights)
	sh.flights[slot].req = req
	if !req.write {
		sh.cache[req.inner] = cached{slot: slot}
	}
	sh.flying++
	sh.occupancy.Store(int32(sh.flying))
}

// finish completes the oldest access in flight and resolves its futures, if
// it still has any.
func (sh *shard) finish() {
	slot := sh.first
	fl := &sh.flights[slot]
	sh.first = (sh.first + 1) % len(sh.flights)
	sh.flying--
	sh.occupancy.Store(int32(sh.flying))

	v, err := sh.oram.Finish()
	req := fl.req
	fl.req = request{}
	if req.fut == nil {
		// A posted write: failing it loses a write already acknowledged,
		// so any error, not only a storage or integrity fault, fail-stops
		// the shard. The accesses begun behind it fail with it.
		if err != nil {
			sh.health.quarantine(err)
		}
		return
	}
	if err != nil {
		err = sh.noteError(err)
	}
	// The window cache learns the value only if it still expects it from
	// this flight: a write to the address, a control op or a new window
	// since the read started all mean it must not.
	c, expected := sh.cache[req.inner]
	expected = expected && !req.write && c.val == nil && c.slot == slot
	switch {
	case err != nil:
		if expected {
			delete(sh.cache, req.inner)
		}
		req.fut.resolve(nil, err)
	case expected:
		sh.cache[req.inner] = cached{val: v}
		req.fut.resolve(bytes.Clone(v), nil)
	case req.write:
		req.fut.resolve(nil, nil)
	default:
		req.fut.resolve(v, nil)
	}
	for i, f := range fl.followers {
		if err != nil {
			f.resolve(nil, err)
		} else {
			f.resolve(bytes.Clone(v), nil)
		}
		fl.followers[i] = nil
	}
	fl.followers = fl.followers[:0]
}

// finishReady finishes, oldest first, the accesses in flight whose path
// read has arrived. Over synchronous memory that is every started access,
// at once.
func (sh *shard) finishReady() {
	for sh.flying > 0 && sh.oram.Ready() {
		sh.finish()
	}
}

// drain finishes every access in flight: the barrier in front of control
// ops and shutdown.
func (sh *shard) drain() {
	for sh.flying > 0 {
		sh.finish()
	}
}

// maintainPending reports whether the owner should spend idle time on
// backend maintenance. A quarantined shard does no maintenance — its
// trusted state may have diverged from untrusted memory, and maintenance
// performs untrusted I/O.
func (sh *shard) maintainPending() bool {
	return sh.health.State() != StateQuarantined && sh.oram.MaintainPending()
}

// maintainStep runs one inline maintenance quantum. A maintenance fault is
// a storage fault like any other: it quarantines the shard via noteError.
func (sh *shard) maintainStep() {
	if _, err := sh.oram.Maintain(0); err != nil {
		sh.noteError(err)
	}
}

// noteError inspects an ORAM error: an integrity violation or an untrusted-
// memory I/O fault quarantines the shard (fail-stop, matching the
// controller's own latch) and is rewrapped so callers see both
// ErrQuarantined and the cause. Any other error passes through as an
// ordinary internal error, unless the shard is already quarantined — an
// access abandoned behind a lost posted write reports the quarantine.
//
// Storage faults quarantine for the same reason integrity violations do:
// after a failed page-file write or a bucketd connection lost with
// write-backs in flight, the controller's trusted state and remote memory
// may have diverged unverifiably, and a shard that kept retrying would
// wedge every caller behind its queue. Quarantine keeps the failure to one
// slice of the address space — every other shard keeps serving.
func (sh *shard) noteError(err error) error {
	if errors.Is(err, freecursive.ErrIntegrity) || errors.Is(err, freecursive.ErrStorage) {
		sh.health.quarantine(err)
	}
	if sh.health.State() == StateQuarantined {
		return sh.health.err()
	}
	return err
}

// stats returns a counter snapshot serialized through the owner goroutine,
// falling back to the final snapshot once the shard has closed.
func (sh *shard) stats() freecursive.Stats {
	ch := make(chan freecursive.Stats, 1)
	if !sh.control(func(o *freecursive.ORAM) { ch <- o.Stats() }) {
		<-sh.done
		return sh.finalStats
	}
	return <-ch
}

func errClosed() error { return fmt.Errorf("store: %w", ErrClosed) }
