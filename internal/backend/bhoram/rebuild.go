package bhoram

import "fmt"

// Rebuild execution: a small step machine so the work interleaves with
// request traffic. Each step performs at most `budget` bucket operations;
// the cursor (phase, source position, bucket offsets) lives across steps.
// Every step is retry-safe: re-reading a source chunk is idempotent
// (builder dedup keeps the newest version of each address), re-writing a
// target chunk reseals the same records under fresh seeds, so an I/O fault
// simply leaves the cursor where it was.
//
// Rebuild I/O is a function of bucket COUNTS only — which buckets, how
// many, in what order are all fixed by the level layout and the schedule,
// never by what the buckets contain. That is what makes the deamortized
// schedule oblivious: the adversary learns the access count, nothing else.

const (
	phaseRead = iota
	phaseAssign
	phaseWrite
	phaseDone
)

// rebuildChunk bounds buckets per store operation so one step's latency
// stays bounded even against a slow remote store.
const rebuildChunk = 32

type rebuild struct {
	target    int   // level slice index being built
	sources   []int // level slice indices consumed, ascending
	drop      bool  // major rebuild: tombstones need not survive
	phase     int
	srcCursor int    // index into sources currently being read
	srcBucket uint64 // next bucket within the current source level
	wrBucket  uint64 // next target bucket to write
	newGen    uint64
	newParity int
}

// Maintain runs up to budget bucket operations of pending rebuild work
// (budget <= 0 means one inline quantum) and reports whether work remains.
// The store's owner goroutine calls this when its queue is idle, so
// rebuilds drain off the request path; errors wrap mem.ErrIO and are
// fail-stop for the shard exactly like an access-path fault.
func (b *BucketHash) Maintain(budget int) (bool, error) {
	if err := b.Fault(); err != nil {
		return b.MaintainPending(), err
	}
	if budget <= 0 {
		budget = b.quantum
	}
	err := b.Latch(b.maintainStep(budget))
	return b.MaintainPending(), err
}

// MaintainPending reports whether rebuild work is queued or in progress.
func (b *BucketHash) MaintainPending() bool {
	return b.reb != nil || b.pendingTriggers > 0
}

// maintainStep starts scheduled rebuilds and advances the active one by up
// to budget bucket operations.
func (b *BucketHash) maintainStep(budget int) error {
	for {
		if b.reb == nil {
			if b.pendingTriggers == 0 {
				return nil
			}
			b.pendingTriggers--
			b.startRebuild()
		}
		if budget <= 0 {
			return nil
		}
		n, err := b.rebuildStep(budget)
		if err != nil {
			return err
		}
		budget -= n
		if b.reb.phase == phaseDone {
			b.finishRebuild()
		}
	}
}

// startRebuild freezes the live cache and initializes the step cursor.
// The frozen map doubles as the builder: source-level records merge into
// it with version-max dedup, and lookups keep consulting it until the
// atomic flip, so nothing becomes unreachable mid-rebuild.
func (b *BucketHash) startRebuild() {
	target := -1
	for li := range b.levels {
		if !b.levels[li].active {
			target = li
			break
		}
	}
	drop := false
	if target < 0 {
		// All levels active: major rebuild into the deepest level consumes
		// everything, so tombstones and dead versions can finally go.
		target = len(b.levels) - 1
		drop = true
	}
	if b.reb == nil {
		//oramlint:allow hotpathalloc one rebuild state per backend lifetime, reused across every epoch
		b.reb = &rebuild{}
	}
	r := b.reb
	r.sources = r.sources[:0]
	for li := 0; li < len(b.levels); li++ {
		if li == target && !drop {
			break
		}
		if b.levels[li].active {
			r.sources = append(r.sources, li)
		}
	}
	r.target = target
	r.drop = drop
	r.phase = phaseRead
	r.srcCursor, r.srcBucket, r.wrBucket = 0, 0, 0
	r.newGen = b.levels[target].gen + 1
	r.newParity = b.levels[target].parity ^ 1
	if len(r.sources) == 0 {
		r.phase = phaseAssign
	}

	// Freeze: the live cache becomes the builder; a pooled empty map takes
	// over as the live cache.
	b.frozen = b.cache
	if n := len(b.frozenPool); n > 0 {
		b.cache = b.frozenPool[n-1]
		b.frozenPool = b.frozenPool[:n-1]
	} else {
		//oramlint:allow hotpathalloc frozen-pool miss; the pool recycles emptied builder maps so the steady state never allocates here
		b.cache = make(map[uint64]*record)
	}
}

// rebuildStep advances one phase by at most budget bucket operations and
// returns how many it performed.
func (b *BucketHash) rebuildStep(budget int) (int, error) {
	r := b.reb
	switch r.phase {
	case phaseRead:
		return b.stepRead(budget)
	case phaseAssign:
		b.stepAssign()
		return 0, nil
	case phaseWrite:
		return b.stepWrite(budget)
	}
	return 0, nil
}

// stepRead reads the next chunk of source-level buckets into the builder.
func (b *BucketHash) stepRead(budget int) (int, error) {
	r := b.reb
	src := r.sources[r.srcCursor]
	lv := &b.levels[src]
	chunk := lv.buckets - r.srcBucket
	if uint64(budget) < chunk {
		chunk = uint64(budget)
	}
	if chunk > rebuildChunk {
		chunk = rebuildChunk
	}
	b.chunkIdx = b.chunkIdx[:0]
	for w := r.srcBucket; w < r.srcBucket+chunk; w++ {
		b.chunkIdx = append(b.chunkIdx, b.flatIndex(src, lv.parity, w))
	}
	for len(b.chunkBufs) < len(b.chunkIdx) {
		b.chunkBufs = append(b.chunkBufs, nil)
	}
	bufs := b.chunkBufs[:len(b.chunkIdx)]
	if err := b.store.ReadPath(b.chunkIdx, bufs); err != nil {
		return 0, fmt.Errorf("bhoram: rebuild read (level %d): %w", src+1, err)
	}
	for i, idx := range b.chunkIdx {
		b.absorbSourceBucket(idx, bufs[i])
	}
	b.chargeRebuild(chunk)
	r.srcBucket += chunk
	if r.srcBucket == lv.buckets {
		r.srcCursor++
		r.srcBucket = 0
		if r.srcCursor == len(r.sources) {
			r.phase = phaseAssign
		}
	}
	return int(chunk), nil
}

// absorbSourceBucket decodes every valid slot of one source bucket into
// the builder. Undecryptable or mis-sized buckets contribute nothing, the
// same tamper posture as the probe path.
func (b *BucketHash) absorbSourceBucket(idx uint64, sealed []byte) {
	if sealed == nil {
		return
	}
	body := sealed
	if b.ciph != nil {
		var err error
		body, _, err = b.ciph.OpenTo(b.bodyBuf[:0], idx, sealed)
		if err != nil {
			return
		}
		b.bodyBuf = body
	}
	if len(body) != b.bodyBytes() {
		return
	}
	sb := b.slotBytes()
	for i := 0; i < b.geom.Z; i++ {
		s := body[i*sb:]
		if s[0]&slotValid == 0 {
			continue
		}
		leaf := beUint64(s[9:17])
		if !b.geom.ValidLeaf(leaf) {
			continue // tampered garbage: the leaf is not even a label
		}
		rec := b.newRecord()
		rec.addr = beUint64(s[1:9])
		rec.leaf = leaf
		rec.version = beUint64(s[17:25])
		rec.tomb = s[0]&slotTomb != 0
		copy(rec.data, s[slotHeader:slotHeader+b.geom.BlockBytes])
		b.builderAdd(rec)
	}
}

// builderAdd merges one record into the builder with version-max dedup,
// taking ownership of rec. Re-adding an already-merged record (a retried
// chunk) is a no-op: equal versions are not newer.
func (b *BucketHash) builderAdd(rec *record) {
	old := b.frozen[rec.addr]
	if old == nil {
		b.frozen[rec.addr] = rec
		return
	}
	if rec.version > old.version {
		b.frozen[rec.addr] = rec
		//oramlint:allow secretflow source: rebuild record's addr; sink: nil/size branch in recycleRecord — free-list bookkeeping on records already read by the rebuild's sequential scan, in trusted controller memory
		b.recycleRecord(old)
		return
	}
	b.recycleRecord(rec)
}

// stepAssign distributes the builder's surviving records across the
// target level's buckets under the new generation's hash. Records that
// land in a full bucket spill back to the live cache (keeping their
// version — they are not rewritten); dropped tombstones stay visible in
// the builder until the flip so stale copies in the still-active source
// levels cannot resurrect mid-rebuild. No I/O happens here.
func (b *BucketHash) stepAssign() {
	r := b.reb
	n := b.levels[r.target].buckets
	for uint64(len(b.assign)) < n {
		b.assign = append(b.assign, nil)
	}
	asg := b.assign[:n]
	for i := range asg {
		asg[i] = asg[i][:0]
	}
	z := b.geom.Z
	for addr, rec := range b.frozen {
		if r.drop && rec.tomb {
			continue // recycled at finish; stays findable until the flip
		}
		w := b.bucketFor(r.target, r.newGen, rec.leaf)
		if len(asg[w]) < z {
			asg[w] = append(asg[w], rec)
			continue
		}
		// Bucket overflow: back to the live cache unless a newer copy
		// already lives there.
		old := b.cache[addr]
		if old != nil && old.version >= rec.version {
			b.recycleRecord(rec)
		} else {
			if old != nil {
				//oramlint:allow secretflow source: unfrozen record's addr; sink: nil/size branch in recycleRecord — trusted-memory free-list bookkeeping while draining the frozen builder map; no server I/O depends on it
				b.recycleRecord(old)
			}
			b.cache[addr] = rec
		}
		delete(b.frozen, addr)
	}
	r.phase = phaseWrite
}

// stepWrite seals and writes the next chunk of target buckets — every
// bucket of the target region is written exactly once, full or empty, so
// the write pattern reveals nothing about where records hashed.
func (b *BucketHash) stepWrite(budget int) (int, error) {
	r := b.reb
	lv := &b.levels[r.target]
	chunk := lv.buckets - r.wrBucket
	if uint64(budget) < chunk {
		chunk = uint64(budget)
	}
	if chunk > rebuildChunk {
		chunk = rebuildChunk
	}
	b.chunkIdx = b.chunkIdx[:0]
	for len(b.chunkSealed) < int(chunk) {
		b.chunkSealed = append(b.chunkSealed, nil)
	}
	for j := uint64(0); j < chunk; j++ {
		w := r.wrBucket + j
		idx := b.flatIndex(r.target, r.newParity, w)
		b.chunkIdx = append(b.chunkIdx, idx)
		body := b.encodeTargetBucket(b.assign[w])
		if b.ciph != nil {
			b.chunkSealed[j] = b.ciph.SealTo(b.chunkSealed[j][:0], idx, 0, body)
		} else {
			b.chunkSealed[j] = append(b.chunkSealed[j][:0], body...)
		}
	}
	if err := b.store.WritePath(b.chunkIdx, b.chunkSealed[:chunk]); err != nil {
		return 0, fmt.Errorf("bhoram: rebuild write (level %d): %w", r.target+1, err)
	}
	b.chargeRebuild(chunk)
	r.wrBucket += chunk
	if r.wrBucket == lv.buckets {
		r.phase = phaseDone
	}
	return int(chunk), nil
}

// encodeTargetBucket serializes records into the reusable encode scratch;
// the result is valid until the next call.
func (b *BucketHash) encodeTargetBucket(recs []*record) []byte {
	body := b.encBuf
	clear(body) // dummy slots must read as all zeros
	sb := b.slotBytes()
	for i, rec := range recs {
		s := body[i*sb:]
		flags := byte(slotValid)
		if rec.tomb {
			flags |= slotTomb
		}
		s[0] = flags
		bePutUint64(s[1:9], rec.addr)
		bePutUint64(s[9:17], rec.leaf)
		bePutUint64(s[17:25], rec.version)
		copy(s[slotHeader:slotHeader+b.geom.BlockBytes], rec.data)
	}
	return body
}

// finishRebuild flips the trusted metadata atomically: sources deactivate,
// the target becomes active under its new generation and parity, and the
// builder's records — now all serialized into the target level or spilled
// to the cache — are recycled.
func (b *BucketHash) finishRebuild() {
	r := b.reb
	for _, src := range r.sources {
		if src == r.target {
			continue
		}
		b.levels[src].active = false
	}
	lv := &b.levels[r.target]
	lv.active = true
	lv.gen = r.newGen
	lv.parity = r.newParity
	for _, rec := range b.frozen {
		b.recycleRecord(rec)
	}
	clear(b.frozen)
	b.frozenPool = append(b.frozenPool, b.frozen)
	b.frozen = nil
	b.reb = nil
	b.ctr.Rebuilds++
}

// chargeRebuild accounts bucket operations performed by rebuild steps.
func (b *BucketHash) chargeRebuild(ops uint64) {
	b.ctr.RebuildSteps += ops
	b.ctr.DataBytes += ops * wireBucketBytes(b.geom)
}

// bePutUint64 mirrors beUint64 for the slot encoders.
func bePutUint64(s []byte, v uint64) {
	_ = s[7]
	s[0], s[1], s[2], s[3] = byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32)
	s[4], s[5], s[6], s[7] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}
