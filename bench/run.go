package main

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"freecursive"
	"freecursive/client"
	"freecursive/internal/store"
)

// clientState is one closed-loop client: its op stream, its shadow of the
// residue class it owns, and scratch for issuing.
type clientState struct {
	id   int
	gen  *opGen
	sh   *shadow
	ops  []op  // this round's pre-generated ops
	lat  *hist // this round's per-op latencies (ns)
	fail int   // this round's failed ops

	bops    []client.BatchOp
	sops    []store.Op
	vers    []uint32
	payload []byte // batch x blockBytes
	sinceSn int    // ops since the last Store.Snapshot
}

func newClients(seed uint64, w *workload) []*clientState {
	cs := make([]*clientState, w.clients)
	for i := range cs {
		cs[i] = &clientState{
			id:      i,
			gen:     newOpGen(seed, w, i),
			sh:      newShadow(w),
			lat:     new(hist),
			bops:    make([]client.BatchOp, w.batch),
			sops:    make([]store.Op, w.batch),
			vers:    make([]uint32, w.batch),
			payload: make([]byte, w.batch*blockBytes),
		}
	}
	return cs
}

// issue sends ops through the workload's entry point in calls of w.batch
// ops, checks every returned value against the shadow, and returns the
// number of failed ops (errors plus reads that disagree). Each op's
// latency — the duration of the call that carried it — goes to lat when
// lat is non-nil.
func (c *clientState) issue(s *stack, ops []op, lat *hist) (failed int) {
	w := s.w
	for len(ops) > 0 {
		n := min(w.batch, len(ops))
		batch := ops[:n]
		ops = ops[n:]
		for i, o := range batch {
			buf := c.payload[i*blockBytes : (i+1)*blockBytes]
			if o.write {
				c.sh.write(o.addr, buf)
			}
			c.vers[i] = c.sh.version(o.addr)
		}
		viaClient := s.cl != nil && !s.direct
		sp := s.tr.beginRoot(viaClient, &c.bops[0])
		start := time.Now()
		if viaClient {
			failed += c.issueClient(s, batch)
		} else {
			failed += c.issueStore(s, batch)
		}
		if lat != nil {
			lat.addN(int64(time.Since(start)), n)
		}
		s.tr.end(sp)
		if w.snapshotEvery > 0 {
			if c.sinceSn += n; c.sinceSn >= w.snapshotEvery {
				c.sinceSn = 0
				if err := s.st.Snapshot(); err != nil {
					failed++
				}
			}
		}
	}
	return failed
}

func (c *clientState) issueClient(s *stack, batch []op) (failed int) {
	bops := c.bops[:len(batch)]
	for i, o := range batch {
		bops[i] = client.BatchOp{Op: client.OpGet, Addr: o.addr}
		if o.write {
			bops[i].Op = client.OpPut
			bops[i].Data = c.payload[i*blockBytes : (i+1)*blockBytes]
		}
	}
	res, err := s.cl.Do(bops)
	if err != nil {
		return len(batch)
	}
	for i, o := range batch {
		switch {
		case res[i].Status >= 400:
			failed++
		case !o.write && !holds(res[i].Data, o.addr, c.vers[i]):
			failed++
		}
	}
	return failed
}

// issueStore is SubmitBatch then Wait on every future: with one op it is
// exactly Store.Get/Put, with sixteen it is what frameserver does.
func (c *clientState) issueStore(s *stack, batch []op) (failed int) {
	sops := c.sops[:len(batch)]
	for i, o := range batch {
		sops[i] = store.Op{Write: o.write, Addr: o.addr}
		if o.write {
			sops[i].Data = c.payload[i*blockBytes : (i+1)*blockBytes]
		}
	}
	for i, f := range s.st.SubmitBatch(sops) {
		got, err := f.Wait()
		if err != nil || (!batch[i].write && !holds(got, batch[i].addr, c.vers[i])) {
			failed++
		}
	}
	return failed
}

// round is what one measured round of a workload yields.
type round struct {
	ops        int
	failed     int
	wall       time.Duration
	cpu        time.Duration // process user+sys over the round
	lat        hist
	bytesMoved uint64 // Stats.BytesMoved delta over the round
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// settledStats returns the store's counters once idle-time maintenance has
// stopped moving them, so a round's delta holds all the background work its
// ops caused and repeats exactly for a fixed stream. Rebuilds are triggered
// by access count, so with no ops arriving they finish.
func settledStats(st *store.Store) freecursive.Stats {
	prev := st.Stats()
	for {
		time.Sleep(200 * time.Microsecond)
		cur := st.Stats()
		if cur == prev {
			return cur
		}
		prev = cur
	}
}

// runRound pre-generates each client's share of n ops, forces a GC, then
// times the clients running them to completion on the workload's processors.
func runRound(s *stack, cs []*clientState, n int) *round {
	runtime.GOMAXPROCS(s.w.procs)
	per := n / len(cs)
	for _, c := range cs {
		if cap(c.ops) < per {
			c.ops = make([]op, per)
		}
		c.ops = c.ops[:per]
		c.gen.fill(c.ops)
		c.lat.reset()
		c.fail = 0
	}
	runtime.GC()
	before := settledStats(s.st)
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *clientState) {
			defer wg.Done()
			c.fail = c.issue(s, c.ops, c.lat)
		}(c)
	}
	wg.Wait()
	r := &round{ops: per * len(cs), wall: time.Since(start)}
	r.cpu = cpuTime() - cpu0
	r.bytesMoved = settledStats(s.st).BytesMoved - before.BytesMoved
	for _, c := range cs {
		r.lat.merge(c.lat)
		r.failed += c.fail
	}
	return r
}

// --- quiet-machine guard ------------------------------------------------------

// refKernel is the fixed single-threaded AES-CTR + SHA-256 reference: the
// same bytes through the same two primitives the ORAM leans on, timed
// between rounds. A round next to a slow reference ran on a disturbed
// machine and is re-run instead of averaged in.
type refKernel struct {
	stream cipher.Stream
	buf    []byte
	passes int
	best   time.Duration
	all    []float64 // every run, ns
}

const (
	refBufBytes  = 1 << 20
	refPasses    = 96   // ~90 ms on the development box
	refTolerance = 1.07 // a reference this much slower than the best marks a disturbed round
)

// newRefKernel returns the reference kernel; a smoke run shortens it, its
// timings being thrown away anyway.
func newRefKernel(smoke bool) *refKernel {
	passes := refPasses
	if smoke {
		passes = refPasses / 16
	}
	blk, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		panic(err) // a 16-byte key is always valid
	}
	return &refKernel{stream: cipher.NewCTR(blk, make([]byte, aes.BlockSize)), buf: make([]byte, refBufBytes), passes: passes}
}

var refSink [sha256.Size]byte

func (k *refKernel) run() time.Duration {
	start := time.Now()
	for i := 0; i < k.passes; i++ {
		k.stream.XORKeyStream(k.buf, k.buf)
		refSink = sha256.Sum256(k.buf)
	}
	d := time.Since(start)
	k.all = append(k.all, float64(d))
	if k.best == 0 || d < k.best {
		k.best = d
	}
	return d
}

func (k *refKernel) quiet(d time.Duration) bool {
	return float64(d) <= refTolerance*float64(k.best)
}

// --- one workload's measurement ----------------------------------------------

// measurement accumulates one workload's set-ups and rounds.
type measurement struct {
	w         *workload
	s         *stack
	cs        []*clientState
	setups    []float64 // seconds, one per set-up
	rounds    []*round  // kept rounds
	discarded int
	attempted int // ops in every round run, kept or not, plus read-back
	failed    int
	heapMB    float64
}

// setup builds the stack and prefills it, timed, `times` times; the last
// instance is kept for the rounds. Each starts from fresh client state so
// every set-up does identical work. The live heap is what the last set-up
// added to HeapAlloc: a fixed amount of work, so it does not depend on how
// many rounds the time box then allows.
func setup(w *workload, seed uint64, times int, tmpRoot string, tr *tracer) (*measurement, error) {
	m := &measurement{w: w}
	for i := 0; i < times; i++ {
		if m.s != nil {
			if err := m.s.close(); err != nil {
				return nil, err
			}
		}
		m.s, m.cs = nil, nil
		runtime.GOMAXPROCS(w.procs)
		before := heapAlloc()
		start := time.Now()
		s, err := w.build(tmpRoot, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		m.s, m.cs = s, newClients(seed, w)
		if err := s.prefill(m.cs); err != nil {
			s.close()
			return nil, err
		}
		m.setups = append(m.setups, time.Since(start).Seconds())
		m.heapMB = (heapAlloc() - before) / (1 << 20)
	}
	return m, nil
}

// heapAlloc returns the live heap after a forced collection.
func heapAlloc() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// step runs one round bracketed by the reference kernel (prevRef is the
// reference taken just before it) and keeps it only if both references
// were quiet. force keeps it regardless, once the retry budget is spent.
func (m *measurement) step(k *refKernel, prevRef time.Duration, force bool) time.Duration {
	r := runRound(m.s, m.cs, m.w.roundOps)
	ref := k.run()
	m.attempted += r.ops
	m.failed += r.failed
	if force || (k.quiet(prevRef) && k.quiet(ref)) {
		m.rounds = append(m.rounds, r)
	} else {
		m.discarded++
	}
	return ref
}

// retryFactor is how far past its time box the measured phase may run to
// replace discarded rounds.
const retryFactor = 1.25

// measure runs the workloads' rounds interleaved (w1 w2 .. wn, w1 w2 ..),
// so a slow episode lands on one round of each instead of on one workload's
// whole run. Passes continue until `seconds` per workload have elapsed and
// every workload has minRounds kept rounds. Discarded rounds are re-run
// while the retry budget lasts; after it, rounds are kept regardless, and
// harness.rounds_discarded shows the set was disturbed.
func measure(ms []*measurement, k *refKernel, seconds float64, minRounds int) {
	for _, m := range ms { // warm-up: one unrecorded round each
		runRound(m.s, m.cs, m.w.roundOps)
	}
	want := time.Duration(seconds * float64(len(ms)) * float64(time.Second))
	start := time.Now()
	ref := k.run()
	for {
		elapsed := time.Since(start)
		force := float64(elapsed) > retryFactor*float64(want)
		active := false
		for _, m := range ms {
			if elapsed < want || len(m.rounds) < minRounds {
				active = true
				ref = m.step(k, ref, force)
			}
		}
		if !active {
			return
		}
	}
}
