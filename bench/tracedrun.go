package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"freecursive/client"
	"freecursive/internal/backend"
	"freecursive/internal/crypt"
	"freecursive/internal/frame"
	"freecursive/internal/store"
)

// runTraced is the traced run: per workload one set-up, one untraced and
// one traced round of the real stack, a traced store stage (network
// workloads), a traced replica stage, the microprobes and — on the
// transport-bound workload — one open-loop stage. It prints the per-layer
// metrics and writes bench/out/trace-<workload>.json.
func runTraced(o options) ([]*result, error) {
	var results []*result
	for _, w := range o.workloads {
		if o.smoke {
			w = smokeScale(w)
		}
		r, err := traceWorkload(w, o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		results = append(results, r)
	}
	return results, nil
}

// layers collects per-layer metrics in a fixed order.
type layers struct{ m []metric }

func (l *layers) add(name, unit string, v float64) {
	l.m = append(l.m, metric{Name: name, Unit: unit, Value: v})
}

func us(ns float64) float64 { return ns / 1e3 }

// per divides and maps x/0 to 0: a layer a workload does not have reports 0.
func per(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

func traceWorkload(w *workload, o options) (*result, error) {
	tr := newTracer()
	m, err := setup(w, o.seed, 1, filepath.Join(o.outDir, "tmp"), tr)
	if err != nil {
		return nil, err
	}
	s, cs := m.s, m.cs
	defer s.close()
	attempted, failed := 0, 0
	count := func(r *round) *round {
		attempted += r.ops
		failed += r.failed
		return r
	}
	zero := &layerTime{}
	get := func(lt map[string]*layerTime, name string) *layerTime {
		if v := lt[name]; v != nil {
			return v
		}
		return zero
	}
	var L layers
	var p99, cpuPerOp float64 // of the last untraced round

	// Real stack: warm-up, then untraced and traced rounds alternating, so
	// the overhead compares medians rather than two single rounds.
	pairs, openLoopFor := 3, 2*time.Second
	if o.smoke {
		pairs, openLoopFor = 1, 200*time.Millisecond
	}
	stage := func(direct bool) (ops, wall, plainTput, tracedTput float64, lt map[string]*layerTime) {
		s.direct = direct
		defer func() { s.direct = false }()
		mark := len(tr.spans)
		var plain, traced []float64
		for i := 0; i < pairs; i++ {
			p := count(runRound(s, cs, w.roundOps))
			plain = append(plain, float64(p.ops)/p.wall.Seconds())
			p99, cpuPerOp = p.lat.quantile(0.99), p.cpu.Seconds()*1e6/float64(p.ops)
			tr.on = true
			t := count(runRound(s, cs, w.roundOps))
			tr.on = false
			traced = append(traced, float64(t.ops)/t.wall.Seconds())
			ops += float64(t.ops)
			wall += t.wall.Seconds()
		}
		return ops, wall, summarize(plain).Median, summarize(traced).Median, selfTimes(tr.spans, mark)
	}
	runRound(s, cs, w.roundOps)
	var wire0, wire1 wireCounters
	if s.fs != nil {
		wire0 = readWire(s)
	}
	coal0 := readCoalescing(s.st)
	topOps, topWall, plainTput, tracedTput, topLT := stage(false)
	coal1 := readCoalescing(s.st)
	if s.fs != nil {
		wire1 = readWire(s)
	}
	allOps := 2 * topOps // the counters above also saw the untraced rounds
	rootName := "store.access"
	if w.network {
		rootName = "client.do"
	}
	topPerOp := per(float64(get(topLT, rootName).total), topOps) // ns of root span per op
	reach := 1 - per(float64(coal1.coalesced-coal0.coalesced), float64(coal1.enqueued-coal0.enqueued))

	// Store stage: the same store driven directly with the same batches.
	storeLT, storeOps := topLT, topOps
	if w.network {
		storeOps, _, _, _, storeLT = stage(true)
	}
	storeAccess := get(storeLT, "store.access")
	storePerOp := per(float64(storeAccess.total), storeOps)

	// Replica stage: one shard's share of the stream through timed layers.
	perShard := w.blocks / uint64(w.shards)
	rep, err := newReplica(w, perShard, oramSeed, tr, s.dir, s.memAddr)
	if err != nil {
		return nil, err
	}
	defer rep.close()
	if err := rep.prefill(min(perShard, w.prefill/uint64(w.shards))); err != nil {
		return nil, err
	}
	share := shardShare(s.st, w, cs, w.roundOps/w.shards)
	for _, o := range share[:len(share)/4] { // warm the PLB and stash
		rep.do(o)
	}
	share = share[len(share)/4:]
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ctr0, mem0, blocking0 := *rep.ctr, rep.mem.Stats(), rep.mem.blocking
	frames0 := uint64(0)
	if s.bd != nil {
		frames0 = s.bd.FramesServed()
	}
	mark := len(tr.spans)
	tr.on = true
	for _, o := range share {
		attempted++
		if !rep.do(o) {
			failed++
		}
	}
	tr.on = false
	repLT := selfTimes(tr.spans, mark)
	runtime.ReadMemStats(&ms1)
	frames1 := uint64(0)
	if s.bd != nil {
		frames1 = s.bd.FramesServed()
	}
	ctr, mem1 := rep.ctr.Delta(ctr0), rep.mem.Stats()
	repOps := float64(len(share))
	coreT, beT, mtT := get(repLT, "core.access"), get(repLT, "backend.access"), get(repLT, "backend.maintain")
	rpT, wpT := get(repLT, "mem.readpath"), get(repLT, "mem.writepath")
	if wpT.count == 0 { // memories without WritePath are written bucket by bucket; extend merges those per access
		wpT = get(repLT, "mem.write")
	}
	memTotal := 0.0
	for _, name := range []string{"mem.read", "mem.write", "mem.readpath", "mem.writepath"} {
		memTotal += float64(get(repLT, name).total)
	}
	// Time under backend.maintain is reported on its own, not as access time.
	memInAccess := memTotal - float64(mtT.total-mtT.self)

	// Per-op self time of the layers whose calls a decorator brackets, for
	// the workload's real op mix: the replica sees every op, the real core
	// only those that do not coalesce. Their sum over the root span is
	// harness.attributed_share. Idle-time maintenance counts: on one
	// processor the owner drains it before the waiting client runs again.
	clientSelf := per(float64(get(topLT, "client.do").self), topOps)
	coreSelf := reach * per(float64(coreT.self), repOps)
	beSelf := reach * per(float64(beT.self), repOps)
	memSelf := reach * per(memInAccess, repOps)
	maintain := reach * per(float64(mtT.total), repOps)
	attributed := clientSelf + coreSelf + beSelf + memSelf + maintain
	// frameserver (with the wire) and store have no boundary to decorate:
	// each is known only as the difference between two stages' spans, which
	// is what the share above lacks, and may come out negative.
	serverSelf := 0.0
	if w.network {
		serverSelf = per(float64(get(topLT, "client.roundtrip").total), topOps) - storePerOp
	}
	storeOver := storePerOp - reach*per(float64(coreT.total+mtT.total), repOps)

	L.add("client.roundtrips_per_op", "count", per(float64(get(topLT, "client.roundtrip").count), topOps))
	L.add("client.roundtrip_p50_us", "us", us(get(topLT, "client.roundtrip").lat.quantile(0.5)))
	L.add("client.self_us_per_op", "us", us(clientSelf))
	enc, dec := probeFrame()
	L.add("frame.encode_ns_per_op", "ns", enc)
	L.add("frame.decode_ns_per_op", "ns", dec)
	L.add("frameserver.self_us_per_op", "us", us(serverSelf))
	L.add("frameserver.wire_bytes_per_op", "bytes", per(float64(wire1.bytes-wire0.bytes), allOps))
	L.add("frameserver.batches_per_s", "1/s", per(float64(wire1.batches-wire0.batches)/2, topWall))
	L.add("store.access_p50_us", "us", us(storeAccess.lat.quantile(0.5)))
	L.add("store.overhead_us_per_op", "us", us(storeOver))
	L.add("store.coalesced_read_share", "ratio", 1-reach)
	L.add("core.access_p50_us", "us", us(coreT.lat.quantile(0.5)))
	L.add("core.self_us_per_op", "us", us(coreSelf))
	L.add("core.backend_accesses_per_op", "count", per(float64(ctr.BackendAccesses), repOps))
	L.add("core.plb_hit_rate", "ratio", ctr.PLBHitRate())
	L.add("core.posmap_bytes_share", "ratio", ctr.PosMapFraction())
	L.add("core.mac_checks_per_op", "count", per(float64(ctr.MACChecks), repOps))
	L.add("core.group_remaps_per_kop", "count", 1000*per(float64(ctr.GroupRemap), repOps))
	L.add("core.allocs_per_op", "count", per(float64(ms1.Mallocs-ms0.Mallocs), repOps))
	L.add("core.bytes_moved_per_op", "bytes", per(float64(ctr.TotalBytes()), repOps))
	L.add("backend.access_p50_us", "us", us(beT.lat.quantile(0.5)))
	L.add("backend.self_us_per_access", "us", us(per(float64(beT.self), float64(beT.count))))
	L.add("backend.stash_max", "count", float64(ctr.StashMax))
	L.add("backend.stash_overflows", "count", float64(ctr.StashOverflow))
	L.add("backend.rebuilds", "count", float64(ctr.Rebuilds))
	L.add("backend.rebuild_steps_per_op", "count", per(float64(ctr.RebuildSteps), repOps))
	L.add("backend.maintain_us_per_op", "us", us(maintain))
	seal, open, mac := probeCrypt(backend.SealedBucketBytes(rep.be.Geometry()) - crypt.SeedBytes)
	L.add("crypt.seal_ns_per_bucket", "ns", seal)
	L.add("crypt.open_ns_per_bucket", "ns", open)
	L.add("crypt.mac_ns_per_block", "ns", mac)
	L.add("mem.readpath_p50_us", "us", us(rpT.lat.quantile(0.5)))
	L.add("mem.writepath_p50_us", "us", us(wpT.lat.quantile(0.5)))
	L.add("mem.self_us_per_op", "us", us(memSelf))
	L.add("mem.bucket_reads_per_op", "count", per(float64(mem1.Reads-mem0.Reads), repOps))
	L.add("mem.bucket_writes_per_op", "count", per(float64(mem1.Writes-mem0.Writes), repOps))
	roundtrips := 0.0
	if s.bd != nil {
		roundtrips = per(float64(rep.mem.blocking-blocking0), repOps)
	}
	L.add("mem.roundtrips_per_op", "count", roundtrips)
	L.add("bucketd.frames_per_op", "count", per(float64(frames1-frames0), repOps))
	L.add("mem.resident_bytes_per_user_byte", "ratio", per(float64(mem1.Bytes), float64(perShard*blockBytes)))

	k := newRefKernel(o.smoke)
	for i := 0; i < 3; i++ {
		k.run()
	}
	L.add("harness.ref_kernel_ns", "ns", summarize(k.all).Median)
	L.add("harness.rounds_discarded", "count", 0) // a traced run has no guard: its timings are never gated
	L.add("harness.latency_p99_us", "us", us(p99))
	L.add("harness.cpu_us_per_op", "us", cpuPerOp)
	L.add("harness.trace_overhead_share", "ratio", 1-tracedTput/plainTput)
	L.add("harness.attributed_share", "ratio", per(attributed, topPerOp))
	var ol openLoopResult
	if w.network && w.rtt == 0 {
		ol = openLoop(s, cs, 0.5*plainTput, openLoopFor)
		attempted += ol.attempted
		failed += ol.failed
	}
	L.add("harness.openloop_p90_us", "us", us(ol.latP90))
	L.add("harness.generator_lag_p90_us", "us", us(ol.lagP90))
	L.add("harness.spans_dropped", "count", float64(tr.dropped))

	if err := tr.writeSpans(filepath.Join(o.outDir, "trace-"+w.name+".json"), 1<<16); err != nil {
		return nil, err
	}
	return &result{Workload: w.name, Attempted: attempted, Failed: failed, Metrics: L.m}, nil
}

type wireCounters struct{ bytes, batches uint64 }

func readWire(s *stack) wireCounters {
	ts := s.fs.TransportStats()
	return wireCounters{bytes: ts.BytesRead + ts.BytesWritten, batches: ts.Batches}
}

type coalescing struct{ enqueued, coalesced uint64 }

func readCoalescing(st *store.Store) (c coalescing) {
	for _, info := range st.ShardInfos() {
		c.enqueued += info.Enqueued
		c.coalesced += info.CoalescedReads
	}
	return c
}

// --- microprobes: what no interface boundary exposes ----------------------------

const probeIters = 20000

// probeFrame times the frame codec on a 16-op request (10% puts) and its
// response, per op, encode and decode separately.
func probeFrame() (encodeNs, decodeNs float64) {
	const n = 16
	data := make([]byte, blockBytes)
	ops := make([]frame.Op, n)
	res := make([]frame.Result, n)
	for i := range ops {
		ops[i] = frame.Op{Addr: uint64(i) * 977}
		res[i] = frame.Result{Status: 200, Data: data}
		if i%10 == 0 {
			ops[i].Put, ops[i].Data = true, data
			res[i] = frame.Result{Status: 204}
		}
	}
	var reqEnc, respEnc frame.Encoder
	var decoder frame.Decoder
	start := time.Now()
	for i := 0; i < probeIters; i++ {
		reqEnc.Request(uint64(i), ops)
		respEnc.Response(uint64(i), frame.Response{Results: res})
	}
	encodeNs = float64(time.Since(start)) / (probeIters * n)
	req, _ := reqEnc.Request(1, ops)
	resp, _ := respEnc.Response(1, frame.Response{Results: res})
	const prefix = 4 // the length prefix Encoder writes and ReadFrame strips
	start = time.Now()
	for i := 0; i < probeIters; i++ {
		decoder.Request(req[prefix:])
		decoder.Response(resp[prefix:])
	}
	decodeNs = float64(time.Since(start)) / (probeIters * n)
	return encodeNs, decodeNs
}

// probeCrypt times sealing and opening one bucket body of bodyBytes and one
// PMMAC tag over a block.
func probeCrypt(bodyBytes int) (sealNs, openNs, macNs float64) {
	ciph, err := crypt.NewBucketCipher(deriveKey(oramSeed, 'E'), crypt.SeedGlobal)
	if err != nil {
		return 0, 0, 0
	}
	mac, err := crypt.NewMAC(deriveKey(oramSeed, 'M'), crypt.DefaultTagBytes)
	if err != nil {
		return 0, 0, 0
	}
	body := make([]byte, bodyBytes)
	var sealed, opened []byte
	start := time.Now()
	for i := 0; i < probeIters; i++ {
		sealed = ciph.SealTo(sealed[:0], uint64(i), 0, body)
	}
	sealNs = float64(time.Since(start)) / probeIters
	start = time.Now()
	for i := 0; i < probeIters; i++ {
		opened, _, _ = ciph.OpenTo(opened[:0], probeIters-1, sealed)
	}
	openNs = float64(time.Since(start)) / probeIters
	tag := make([]byte, 0, crypt.DefaultTagBytes)
	block := make([]byte, blockBytes)
	start = time.Now()
	for i := 0; i < probeIters; i++ {
		tag = mac.AppendTag(tag[:0], uint64(i), 42, block)
	}
	macNs = float64(time.Since(start)) / probeIters
	return sealNs, openNs, macNs
}

// --- open-loop stage ---------------------------------------------------------------

type openLoopResult struct {
	latP90, lagP90    float64 // ns
	attempted, failed int
}

// openLoop sends read-only batches on a fixed schedule at `rate` ops/s for
// `dur`, whether or not earlier ones have returned, and times each from its
// intended send time, so a stall is charged to every request it delays
// (no coordinated omission). Reads only: with batches of one client in
// flight together, only reads have an exact expected value.
func openLoop(s *stack, cs []*clientState, rate float64, dur time.Duration) openLoopResult {
	const maxInFlight = 256
	w := s.w
	interval := time.Duration(float64(w.batch*len(cs)) / rate * float64(time.Second))
	var (
		mu       sync.Mutex
		lat, lag hist
		res      openLoopResult
		wg       sync.WaitGroup
	)
	start := time.Now()
	for _, c := range cs {
		wg.Add(1)
		go func(c *clientState) {
			defer wg.Done()
			var inflight sync.WaitGroup
			sem := make(chan struct{}, maxInFlight) // in-flight batches; full means the generator stalls and its lag shows
			for k := 0; ; k++ {
				due := start.Add(time.Duration(k) * interval)
				if due.Sub(start) >= dur {
					break
				}
				time.Sleep(time.Until(due))
				sem <- struct{}{}
				sent := time.Now()
				bops := make([]client.BatchOp, w.batch)
				for i := range bops {
					bops[i] = client.BatchOp{Op: client.OpGet, Addr: c.gen.next().addr}
				}
				inflight.Add(1)
				go func() {
					defer inflight.Done()
					out, err := s.cl.Do(bops)
					done := time.Now()
					bad := 0
					for i, b := range bops {
						if err != nil || out[i].Status >= 400 || !holds(out[i].Data, b.Addr, c.sh.version(b.Addr)) {
							bad++
						}
					}
					<-sem
					mu.Lock()
					lat.addN(int64(done.Sub(due)), len(bops))
					lag.add(int64(sent.Sub(due)))
					res.attempted += len(bops)
					res.failed += bad
					mu.Unlock()
				}()
			}
			inflight.Wait()
		}(c)
	}
	wg.Wait()
	res.latP90, res.lagP90 = lat.quantile(0.9), lag.quantile(0.9)
	return res
}
