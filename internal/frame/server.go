package frame

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// window bounds the frames one connection may have read but not yet
// answered. Past it the read loop stops reading, TCP pushes back and the
// peer's sends block: the backpressure of both protocols.
const window = 64

// Handler is one connection's half of a protocol served by a Server: the
// schema's decoder, encoder and whatever turns a request into a response
// of type R. Frame runs on the connection's read goroutine and Encode on
// its writer goroutine, so each may own scratch without locking.
type Handler[R any] interface {
	// Frame handles one request payload, read at arrived, in arrival
	// order. The payload is valid only until Frame returns. A nil return
	// promises exactly one Conn.Send for the frame, now or later and from
	// any goroutine; an error drops the connection and promises none.
	Frame(payload []byte, arrived time.Time) error
	// Encode returns the response frame for r, valid until its next call.
	Encode(id uint64, r R) ([]byte, error)
}

// Server is the connection server both binary protocols run on. It owns
// the listeners and the connection registry, the accept loop, each
// connection's read loop and writer, the in-flight window and the
// counters; what a frame means is the Handler's business. Create one with
// NewServer, start it with Serve, stop it with Close.
type Server[R any] struct {
	open func(*Conn[R]) Handler[R]
	logf func(format string, args ...any)

	mu     sync.Mutex
	lns    []net.Listener
	conns  map[net.Conn]struct{}
	total  uint64
	closed bool
	quit   chan struct{}  // closed by Close: writers stop waiting for due times
	wg     sync.WaitGroup // connection goroutines

	frames, bytesRead, bytesWritten atomic.Uint64
	inFlight                        atomic.Int64
}

// NewServer returns a Server that calls open once per accepted connection
// for the Handler serving it. logf, if non-nil, receives connection events
// (accepts, drops).
func NewServer[R any](open func(*Conn[R]) Handler[R], logf func(format string, args ...any)) *Server[R] {
	return &Server[R]{
		open:  open,
		logf:  logf,
		conns: make(map[net.Conn]struct{}),
		quit:  make(chan struct{}),
	}
}

// Stats is a snapshot of a Server's counters.
type Stats struct {
	ConnsOpen, ConnsTotal   uint64
	Frames                  uint64 // responses sent (queued) by the handlers
	BytesRead, BytesWritten uint64
	InFlight                uint64 // frames read but not yet answered
}

// Stats returns the server's counters.
func (s *Server[R]) Stats() Stats {
	s.mu.Lock()
	open, total := len(s.conns), s.total
	s.mu.Unlock()
	return Stats{
		ConnsOpen:    uint64(open),
		ConnsTotal:   total,
		Frames:       s.frames.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
		InFlight:     uint64(s.inFlight.Load()),
	}
}

// Serve accepts connections on ln until Close, after which it returns nil;
// any other accept error is returned as is. Serve may run on several
// listeners at once.
func (s *Server[R]) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("frame: server closed")
	}
	s.lns = append(s.lns, ln)
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		s.mu.Lock()
		if err != nil || s.closed {
			closed := s.closed
			s.mu.Unlock()
			if closed {
				if nc != nil {
					nc.Close()
				}
				return nil
			}
			return err
		}
		s.conns[nc] = struct{}{}
		s.total++
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serve(nc)
	}
}

// Close stops accepting, closes every live connection and returns once
// every connection's read loop and writer have exited, which is after
// every frame read has been answered or its answer dropped. Later Serve
// calls fail.
func (s *Server[R]) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.quit)
	for _, ln := range s.lns {
		ln.Close()
	}
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

func (s *Server[R]) log(format string, args ...any) {
	if s.logf != nil {
		s.logf(format, args...)
	}
}

// Conn is the Server's side of one connection as its Handler sees it.
type Conn[R any] struct {
	s     *Server[R]
	out   chan queued[R] // responses in send order; sized to the window, so a Send never waits
	slots chan struct{}  // the window: one token per frame read and not yet answered
}

type queued[R any] struct {
	id  uint64
	r   R
	due time.Time
}

// Send queues r as the response to request frame id, to be written no
// earlier than due (the zero time: at once). Responses are written in the
// order they are sent. Send never blocks: each frame holds a window slot
// until its response is written, and the queue has room for the window.
func (c *Conn[R]) Send(id uint64, r R, due time.Time) {
	c.s.frames.Add(1)
	c.out <- queued[R]{id: id, r: r, due: due}
}

// serve runs one connection: the read loop here, the writer beside it.
// When reading ends, for any reason, the connection is closed, and serve
// returns once every frame read has been answered and the writer is gone.
func (s *Server[R]) serve(nc net.Conn) {
	defer s.wg.Done()
	s.log("conn %s: accepted", nc.RemoteAddr())
	c := &Conn[R]{s: s, out: make(chan queued[R], window), slots: make(chan struct{}, window)}
	h := s.open(c)
	written := make(chan struct{})
	go func() {
		defer close(written)
		c.write(nc, h)
	}()

	if err := c.read(nc, h); !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
		s.log("conn %s: dropped: %v", nc.RemoteAddr(), err)
	}
	nc.Close()
	// Taking every slot waits out the frames still being answered: once
	// all are held, no handler owes a Send, and the queue can be closed.
	for range window {
		c.slots <- struct{}{}
	}
	close(c.out)
	<-written

	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
}

// read hands each frame to the handler until the stream fails or the
// handler rejects a frame. It takes a window slot per frame first, so a
// full window stops it reading.
func (c *Conn[R]) read(nc net.Conn, h Handler[R]) error {
	br := bufio.NewReaderSize(nc, 64<<10)
	var buf []byte
	for {
		payload, scratch, err := ReadFrame(br, buf)
		if err != nil {
			return err
		}
		buf = scratch
		arrived := time.Now()
		c.s.bytesRead.Add(uint64(prefixLen + len(payload)))
		c.slots <- struct{}{}
		c.s.inFlight.Add(1)
		if err := h.Frame(payload, arrived); err != nil {
			c.release()
			return err
		}
	}
}

// write sends the queued responses in queue order, each no earlier than
// its due time, and flushes whenever the queue runs empty. After a failure
// it closes the connection and only releases what is still queued.
func (c *Conn[R]) write(nc net.Conn, h Handler[R]) {
	bw := bufio.NewWriterSize(nc, 64<<10)
	var err error
	for q := range c.out {
		if d := time.Until(q.due); err == nil && d > 0 {
			err = bw.Flush() // what is written already leaves before the wait
			select {
			case <-time.After(d):
			case <-c.s.quit:
				err = net.ErrClosed
			}
		}
		if err == nil {
			var b []byte
			if b, err = h.Encode(q.id, q.r); err != nil {
				c.s.log("conn %s: encoding response %d: %v", nc.RemoteAddr(), q.id, err)
			} else if _, err = bw.Write(b); err == nil {
				c.s.bytesWritten.Add(uint64(len(b)))
			}
		}
		if err == nil && len(c.out) == 0 {
			err = bw.Flush()
		}
		if err != nil {
			nc.Close() // the read loop sees it and ends the connection
		}
		c.release()
	}
}

func (c *Conn[R]) release() {
	<-c.slots
	c.s.inFlight.Add(-1)
}
