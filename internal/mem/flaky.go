package mem

import (
	"fmt"
	"math/rand"
	"time"
)

// Bouncer is implemented by backends whose transport can be cleanly
// disconnected between operations (Remote drops its TCP connection and
// redials on the next op). Flaky uses it to inject connection churn.
type Bouncer interface {
	Bounce() error
}

// FlakyConfig parameterizes a Flaky wrapper. All injection is seeded and
// deterministic: the same config over the same operation sequence fails the
// same operations.
type FlakyConfig struct {
	// Seed drives the probabilistic injections (ErrProb, Jitter).
	Seed uint64
	// FailEvery, when nonzero, fails every FailEvery-th data operation.
	FailEvery uint64
	// ErrProb, when nonzero, fails each data operation with this
	// probability.
	ErrProb float64
	// Jitter, when nonzero, sleeps a uniform [0, Jitter) before each data
	// operation — latency noise for race/stress tests.
	Jitter time.Duration
	// PartialPath, when > 0, makes an injected ReadPath failure a MID-PATH
	// one: the first PartialPath buckets are served into out before the
	// error returns. This pins down that a caller must not absorb any
	// prefix of a failed path read.
	PartialPath int
	// DisconnectEvery, when nonzero and the inner backend implements
	// Bouncer, bounces the connection before every DisconnectEvery-th data
	// operation. The operation itself then proceeds (over a redialed
	// connection), exercising the redial path without an error.
	DisconnectEvery uint64
}

// Flaky wraps a Backend and injects faults: deterministic every-Nth and
// seeded probabilistic errors (all wrapping ErrIO, as a lossy transport
// would), optional latency jitter, optional mid-path partial failures, and
// optional connection bounces when the inner backend supports them. Peek
// and Poke pass through untouched — the adversary's instruments do not
// flake. Injected errors are reported through the inner backend's
// ownership rules unchanged: a failed operation may have partially
// happened (exactly like real remote I/O), and the layers above must
// fail-stop rather than reason about how far it got.
type Flaky struct {
	Backend
	split SplitPathReader // the inner backend, if it can split path reads
	cfg   FlakyConfig
	rng   *rand.Rand
	n     uint64 // data operations seen
}

// WithFaults wraps inner with fault injection per cfg.
func WithFaults(inner Backend, cfg FlakyConfig) *Flaky {
	split, _ := inner.(SplitPathReader)
	return &Flaky{
		Backend: inner,
		split:   split,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(int64(cfg.Seed))),
	}
}

// step advances the operation counter and decides this operation's fate:
// a non-nil error means the operation must fail without reaching the inner
// backend (except for a partial path prefix, handled in ReadPath).
func (f *Flaky) step() error {
	f.n++
	if f.cfg.Jitter > 0 {
		time.Sleep(time.Duration(f.rng.Int63n(int64(f.cfg.Jitter))))
	}
	if f.cfg.DisconnectEvery > 0 && f.n%f.cfg.DisconnectEvery == 0 {
		if b, ok := f.Backend.(Bouncer); ok {
			if err := b.Bounce(); err != nil {
				return fmt.Errorf("mem: injected disconnect at op %d: %w: %w", f.n, ErrIO, err)
			}
		}
	}
	fail := f.cfg.FailEvery > 0 && f.n%f.cfg.FailEvery == 0
	if !fail && f.cfg.ErrProb > 0 && f.rng.Float64() < f.cfg.ErrProb {
		fail = true
	}
	if fail {
		return fmt.Errorf("mem: injected fault at op %d: %w", f.n, ErrIO)
	}
	return nil
}

// Read implements Backend with fault injection.
//
//oram:offhotpath fault-injection wrapper for crash tests, not a steady-state serving path
func (f *Flaky) Read(idx uint64) ([]byte, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	return f.Backend.Read(idx)
}

// Write implements Backend with fault injection.
//
//oram:offhotpath fault-injection wrapper for crash tests, not a steady-state serving path
func (f *Flaky) Write(idx uint64, data []byte) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.Backend.Write(idx, data)
}

// ReadPath implements PathReader with fault injection. An injected failure
// with PartialPath > 0 serves that many leading buckets into out before
// erroring — the mid-path partial failure a dropped connection produces.
//
//oram:offhotpath fault-injection wrapper for crash tests, not a steady-state serving path
func (f *Flaky) ReadPath(idxs []uint64, out [][]byte) error {
	if err := f.step(); err != nil {
		if n := f.cfg.PartialPath; n > 0 {
			if n > len(idxs) {
				n = len(idxs)
			}
			// Serve the prefix through the real backend, then fail. The
			// suffix of out is left untouched (stale), as a torn transport
			// would leave it.
			if perr := f.Backend.ReadPath(idxs[:n], out[:n]); perr != nil {
				return perr
			}
		}
		return err
	}
	return f.Backend.ReadPath(idxs, out)
}

// IssueReadPath forwards SplitPathReader with fault injection: issuing is
// the data operation (a fault means the read never left; PartialPath does
// not apply, nothing has been served yet). Completion, readiness and the
// signal belong to the inner backend untouched, and ReadSignal is nil when
// the inner backend cannot split.
//
//oram:offhotpath fault-injection wrapper for crash tests, not a steady-state serving path
func (f *Flaky) IssueReadPath(idxs []uint64) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.split.IssueReadPath(idxs)
}

// CompleteReadPath forwards SplitPathReader.
func (f *Flaky) CompleteReadPath(idxs []uint64, out [][]byte) error {
	return f.split.CompleteReadPath(idxs, out)
}

// ReadReady forwards SplitPathReader.
func (f *Flaky) ReadReady() bool { return f.split.ReadReady() }

// ReadSignal forwards SplitPathReader.
func (f *Flaky) ReadSignal() <-chan struct{} {
	if f.split == nil {
		return nil
	}
	return f.split.ReadSignal()
}

// WritePath implements PathWriter with fault injection.
//
//oram:offhotpath fault-injection wrapper for crash tests, not a steady-state serving path
func (f *Flaky) WritePath(idxs []uint64, data [][]byte) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.Backend.WritePath(idxs, data)
}

// Ops returns how many data operations the wrapper has seen, so tests can
// line assertions up with the injection schedule.
func (f *Flaky) Ops() uint64 { return f.n }

var (
	_ Backend         = (*Flaky)(nil)
	_ SplitPathReader = (*Flaky)(nil)
)
