package minihttp

import (
	"io"
	"net"
	"sync"
)

// Stream is the connection surface the transactional serving loop needs:
// a duplex byte stream plus WaitReadable, so an SBD thread can park
// outside its atomic section until a request arrives (core.Thread.Suspend)
// and keep the section's reads non-blocking. Both the in-memory Conn and
// the TCP adapter NetConn satisfy it, which lets the same handler loop
// serve deterministic in-memory tests and a real TCP listener.
type Stream interface {
	io.ReadWriter
	Close()
	WaitReadable() bool
}

// NetConn adapts a real net.Conn to the Stream interface. The kernel
// socket has no WaitReadable, so the adapter buffers: WaitReadable
// performs one (possibly blocking) read into an internal buffer, and
// Read serves that buffer before touching the socket again. One goroutine
// at a time may call WaitReadable and Read. Close may be called from
// another goroutine (the server's drain path); it unblocks a pending
// WaitReadable via the usual closed-socket read error.
type NetConn struct {
	raw net.Conn

	mu   sync.Mutex
	buf  []byte // what WaitReadable read and Read has not served, within rbuf
	err  error  // sticky read-side error (io.EOF after a clean peer close)
	rbuf [4096]byte
}

// NewNetConn wraps a connected socket.
func NewNetConn(raw net.Conn) *NetConn { return &NetConn{raw: raw} }

// Raw returns the underlying socket (for deadlines and addresses).
func (c *NetConn) Raw() net.Conn { return c.raw }

// WaitReadable blocks until at least one byte is buffered and returns
// true, or returns false once the connection is closed or failed.
func (c *NetConn) WaitReadable() bool {
	c.mu.Lock()
	if len(c.buf) > 0 {
		c.mu.Unlock()
		return true
	}
	if c.err != nil {
		c.mu.Unlock()
		return false
	}
	c.mu.Unlock()

	// buf is empty, so nothing in rbuf is left to serve.
	n, err := c.raw.Read(c.rbuf[:])

	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf = c.rbuf[:n]
	if err != nil && c.err == nil {
		c.err = err
	}
	return len(c.buf) > 0
}

// Read serves the WaitReadable buffer first, then the socket.
func (c *NetConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if len(c.buf) > 0 {
		n := copy(p, c.buf)
		c.buf = c.buf[n:]
		c.mu.Unlock()
		return n, nil
	}
	if err := c.err; err != nil {
		c.mu.Unlock()
		return 0, err
	}
	c.mu.Unlock()
	n, err := c.raw.Read(p)
	if err != nil {
		c.mu.Lock()
		if c.err == nil {
			c.err = err
		}
		c.mu.Unlock()
	}
	return n, err
}

// Write passes through to the socket.
func (c *NetConn) Write(p []byte) (int, error) { return c.raw.Write(p) }

// Close closes the socket; a blocked WaitReadable or Read returns.
func (c *NetConn) Close() { c.raw.Close() }
