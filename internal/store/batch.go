package store

// Op is one operation in a batch: a read of Addr when Write is false, or a
// write of Data to Addr when Write is true. Data is ignored for reads;
// shorter write payloads are zero-padded like Put.
type Op struct {
	Write bool
	Addr  uint64
	Data  []byte
}

// SubmitBatch enqueues every operation on its shard's pipeline — in slice
// order, so operations on the same shard (in particular the same address)
// execute in request order — and returns the futures without waiting.
// Distinct shards proceed in parallel, and duplicate-address reads queued
// within a shard's coalescing window share one physical ORAM access.
//
// Nothing fails the batch as a whole: an invalid address or a quarantined
// shard resolves only that operation's future with an error (wrapping
// ErrOutOfRange, ErrQuarantined, ErrClosed or freecursive.ErrIntegrity),
// and every other operation still executes. A read's future resolves to the
// block's contents, a write's to its previous contents. The caller must not
// modify a write's Data until its future resolves.
func (s *Store) SubmitBatch(ops []Op) []*Future {
	futs := make([]*Future, len(ops))
	for i, op := range ops {
		futs[i] = s.submit(op.Write, op.Addr, op.Data)
	}
	return futs
}
