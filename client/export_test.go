package client

import "time"

// SetOpTimeout shortens the binary transport's write and response deadline
// for tests. Call before first use.
func (t *BinaryTransport) SetOpTimeout(d time.Duration) { t.opTimeout = d }

// Retryable reports whether the Client would retry after err.
var Retryable = retryable
