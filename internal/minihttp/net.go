// Package minihttp provides the network substrate and protocol for the
// Tomcat benchmark reproduction: an in-memory byte-stream network
// (listener, dial, duplex connections), an HTTP/1.0-subset wire format,
// and "statically compiled JSP pages" (paper Table 3: the prototype uses
// statically compiled JSP pages because dynamic compilation is not
// implemented — ours are compiled page templates).
//
// Using an in-memory network instead of TCP keeps the benchmark
// deterministic and free of kernel noise while exercising exactly the
// same transactional-wrapper code path (txio.Conn) the paper's network
// I/O uses.
package minihttp

import (
	"bytes"
	"errors"
	"io"
	"sync"
)

// byteQueue is one direction of a duplex connection.
type byteQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	closed bool
}

func newByteQueue() *byteQueue {
	q := &byteQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *byteQueue) write(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, errors.New("minihttp: write on closed connection")
	}
	q.buf = append(q.buf, p...)
	q.cond.Broadcast()
	return len(p), nil
}

func (q *byteQueue) read(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.buf) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(p, q.buf)
	q.buf = q.buf[:copy(q.buf, q.buf[n:])] // keep the storage for the next write
	return n, nil
}

func (q *byteQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Conn is one endpoint of an in-memory duplex connection. It implements
// io.ReadWriter plus Close, which is all txio.Conn needs.
type Conn struct {
	r, w *byteQueue
}

// Pair creates a connected pair of endpoints.
func Pair() (*Conn, *Conn) {
	a, b := newByteQueue(), newByteQueue()
	return &Conn{r: a, w: b}, &Conn{r: b, w: a}
}

// Read blocks until data is available or the peer closed.
func (c *Conn) Read(p []byte) (int, error) { return c.r.read(p) }

// Write appends to the peer's read queue.
func (c *Conn) Write(p []byte) (int, error) { return c.w.write(p) }

// ReadLine reads up to and including the next '\n' and returns the line
// without it. Unlike wrapping Read in a one-byte loop, it consumes whole
// buffered runs under one lock acquisition. A connection that closes
// mid-line yields io.ErrUnexpectedEOF; a clean close yields io.EOF.
func (c *Conn) ReadLine() (string, error) {
	q := c.r
	q.mu.Lock()
	defer q.mu.Unlock()
	var line []byte
	for {
		for len(q.buf) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.buf) == 0 {
			if len(line) > 0 {
				return "", io.ErrUnexpectedEOF
			}
			return "", io.EOF
		}
		if i := bytes.IndexByte(q.buf, '\n'); i >= 0 {
			line = append(line, q.buf[:i]...)
			q.buf = q.buf[:copy(q.buf, q.buf[i+1:])]
			return string(line), nil
		}
		line = append(line, q.buf...)
		q.buf = q.buf[:0]
	}
}

// WaitReadable blocks until data is available to Read and returns true,
// or returns false once the connection is closed and drained. It lets an
// SBD thread park outside its atomic section (core.Thread.Suspend) so
// the section's actual reads never block while holding locks.
func (c *Conn) WaitReadable() bool {
	q := c.r
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.buf) == 0 && !q.closed {
		q.cond.Wait()
	}
	return len(q.buf) > 0
}

// Close shuts down both directions; the peer's reads drain and then
// return io.EOF.
func (c *Conn) Close() {
	c.w.close()
	c.r.close()
}

// Listener accepts in-memory connections.
type Listener struct {
	mu     sync.Mutex
	ch     chan *Conn
	closed bool
}

// ErrClosed is returned by Accept and Dial on a closed listener.
var ErrClosed = errors.New("minihttp: listener closed")

// Listen creates a listener with the given backlog.
func Listen(backlog int) *Listener {
	return &Listener{ch: make(chan *Conn, backlog)}
}

// Dial connects to the listener and returns the client endpoint.
func (l *Listener) Dial() (*Conn, error) {
	client, server := Pair()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	l.mu.Unlock()
	l.ch <- server
	return client, nil
}

// Accept returns the next pending connection's server endpoint.
func (l *Listener) Accept() (*Conn, error) {
	c, ok := <-l.ch
	if !ok {
		return nil, ErrClosed
	}
	return c, nil
}

// Close stops the listener; pending and future Accepts fail.
func (l *Listener) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		close(l.ch)
	}
}
