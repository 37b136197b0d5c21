package backend

import (
	"fmt"

	"freecursive/internal/stats"
	"freecursive/internal/tree"
)

// Accounting is a bandwidth-accounting backend. It answers accesses from a
// flat payload map — so frontends above it (PLB, compressed PosMap, PMMAC)
// behave exactly as over a real tree — while bytes moved are charged
// analytically, a full path of WireBucketBytes buckets read and written per
// access: the paper's hardware, and the functional backend with its
// treetop cache off. No tree, no stash, no crypto: this is what makes the
// 64 GB capacity point of Figure 7 simulable.
//
// Accounting trusts its caller (there is no adversary below it), so it is
// never used in integrity experiments other than to count MAC bytes.
type Accounting struct {
	geom tree.Geometry
	ctr  *stats.Counters
	// payloads maps address -> full BlockBytes payload. Map membership IS
	// the presence bit: every access that materializes a block stores a
	// full-size (zero-padded) payload, and OpReadRmv deletes the entry, so
	// there is no zero-length-vs-absent ambiguity to track separately.
	// TestAccountingPresence pins these semantics.
	payloads  map[uint64][]byte
	pathBytes uint64
}

// NewAccounting builds an accounting backend.
func NewAccounting(g tree.Geometry, ctr *stats.Counters) (*Accounting, error) {
	if g.Z < 1 || g.BlockBytes < 1 {
		return nil, fmt.Errorf("backend: invalid geometry %+v", g)
	}
	if ctr == nil {
		ctr = &stats.Counters{}
	}
	return &Accounting{
		geom:      g,
		ctr:       ctr,
		payloads:  make(map[uint64][]byte),
		pathBytes: PathWireBytes(g),
	}, nil
}

// Geometry returns the tree geometry.
func (a *Accounting) Geometry() tree.Geometry { return a.geom }

// Counters returns the shared counter set.
func (a *Accounting) Counters() *stats.Counters { return a.ctr }

// Close implements Backend (nothing to release).
func (a *Accounting) Close() error { return nil }

// Access implements Backend.
func (a *Accounting) Access(req Request) (Result, error) {
	switch req.Op {
	case OpAppend:
		data := make([]byte, a.geom.BlockBytes)
		copy(data, req.Data)
		a.payloads[req.Addr] = data
		a.ctr.Appends++
		return Result{Found: true}, nil

	case OpRead, OpWrite, OpReadRmv:
		old, found := a.payloads[req.Addr]
		res := Result{Data: make([]byte, a.geom.BlockBytes), Found: found}
		copy(res.Data, old)

		switch req.Op {
		case OpReadRmv:
			delete(a.payloads, req.Addr)
		case OpRead:
			if req.Update != nil {
				upd := req.Update(res.cloneData(), found)
				data := make([]byte, a.geom.BlockBytes)
				copy(data, upd)
				a.payloads[req.Addr] = data
			} else if !found {
				a.payloads[req.Addr] = make([]byte, a.geom.BlockBytes)
			}
		case OpWrite:
			data := make([]byte, a.geom.BlockBytes)
			copy(data, req.Data)
			a.payloads[req.Addr] = data
		}

		a.ctr.BackendAccesses++
		if req.PosMap {
			a.ctr.PosMapBytes += a.pathBytes
		} else {
			a.ctr.DataBytes += a.pathBytes
		}
		return res, nil

	default:
		return Result{}, fmt.Errorf("backend: unknown op %v", req.Op)
	}
}

func (r Result) cloneData() []byte {
	c := make([]byte, len(r.Data))
	copy(c, r.Data)
	return c
}
