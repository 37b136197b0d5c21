package mem

import "time"

// Timing is a Remote's wire schedule, for tests that must not wait out the
// production constants (connect 2 s × 5 attempts, backoff from 50 ms, 30 s
// per operation): RemoteConfig has no timing fields. A zero field keeps
// the production value.
type Timing struct {
	Dial     time.Duration // one connect attempt
	Attempts int           // connect attempts per (re)dial
	Backoff  time.Duration // first pause between attempts
	Op       time.Duration // one request write, or the wait for one response
}

// DialRemoteTimed is DialRemote on the schedule t.
func DialRemoteTimed(cfg RemoteConfig, t Timing) (*Remote, error) {
	tm := timing{dial: dialTimeout, attempts: dialAttempts, backoff: redialMin, op: DefaultOpTimeout}
	if t.Dial > 0 {
		tm.dial = t.Dial
	}
	if t.Attempts > 0 {
		tm.attempts = t.Attempts
	}
	if t.Backoff > 0 {
		tm.backoff = t.Backoff
	}
	if t.Op > 0 {
		tm.op = t.Op
	}
	return dialRemote(cfg, tm)
}

// PageBuckets is how many buckets one page of a Store holds.
const PageBuckets = pageBuckets
