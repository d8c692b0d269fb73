package shop

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/minihttp"
	"repro/internal/stm"
	"repro/internal/txio"
)

// ServeConn serves minihttp requests on one connection until the peer
// closes, an I/O error occurs, or draining reports true between
// requests. Each request is one atomic section: the response bytes are
// buffered in the transactional connection wrapper and flush exactly at
// commit, while the section's locks are still held — so responses of
// transactions that conflicted on shared rows leave the socket in commit
// order. draining may be nil (never drain).
// A reply is rendered into a per-connection scratch slice and copied
// once into the wrapper's write buffer, which the connection reuses too.
func (s *Shop) ServeConn(w *core.Thread, conn minihttp.Stream, slot int, draining func() bool) {
	defer conn.Close()
	tc := txio.NewConn(conn)
	var readable, closed bool
	var body []byte
	wait := func() { readable = tc.HasReplay() || conn.WaitReadable() }
	serve := func(tx *stm.Tx) {
		line, readErr := tc.ReadLine(tx)
		if readErr != nil {
			// Clean close, a dead peer mid-line, or a line past
			// txio's 64 KiB bound: nothing to answer.
			closed = true
			return
		}
		var status int
		req, err := minihttp.ParseRequest(line)
		if err != nil {
			status, body, closed = 400, append(append(body[:0], err.Error()...), '\n'), true
		} else {
			status, body = s.AppendHandle(body[:0], tx, req, slot)
		}
		var header [24]byte
		tc.Write(tx, minihttp.AppendResponseHeader(header[:0], status, len(body))) //nolint:errcheck
		tc.Write(tx, body)                                                         //nolint:errcheck
	}
	for {
		w.Suspend(wait)
		if !readable {
			return
		}
		closed = false
		w.Atomic(serve)
		// Split per request: commits the database work, flushes the
		// response, and releases the request's locks and transaction ID.
		w.Split()
		if closed || (draining != nil && draining()) {
			return
		}
	}
}

// Server runs a Shop behind a real TCP accept loop: one SBD thread per
// connection (the thousands-of-in-flight-requests shape of the paper's
// Tomcat scenario — transaction identity is virtual so Begin never
// blocks, lock-word slots are only leased while a section holds locks,
// and slot-lease pressure surfaces as Stats.SlotWaitNs instead of a
// hard cap).
type Server struct {
	rt   *core.Runtime
	shop *Shop

	ln       net.Listener
	done     chan struct{}
	draining atomic.Bool
	nextConn atomic.Uint64

	mu    sync.Mutex
	conns map[*minihttp.NetConn]struct{}
}

// NewServer wraps shop (built on rt) in a server.
func NewServer(rt *core.Runtime, shop *Shop) *Server {
	return &Server{rt: rt, shop: shop, conns: make(map[*minihttp.NetConn]struct{})}
}

// Start binds addr (e.g. "127.0.0.1:0"), launches the accept loop, and
// returns the bound address. The SBD runtime's main thread is the
// acceptor; every accepted socket gets its own SBD thread.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		s.rt.Main(func(th *core.Thread) {
			for {
				var c net.Conn
				var aerr error
				th.Suspend(func() { c, aerr = ln.Accept() })
				if aerr != nil {
					return // listener closed: stop accepting, children drain
				}
				nc := minihttp.NewNetConn(c)
				s.mu.Lock()
				s.conns[nc] = struct{}{}
				s.mu.Unlock()
				slot := int(s.nextConn.Add(1)) % statSlots
				th.Go("conn", func(w *core.Thread) {
					defer func() {
						s.mu.Lock()
						delete(s.conns, nc)
						s.mu.Unlock()
					}()
					s.shop.ServeConn(w, nc, slot, s.draining.Load)
				})
				th.Split() // deferred thread start: the child runs from here
			}
		})
	}()
	return ln.Addr().String(), nil
}

// ActiveConns returns the number of connections still being served.
func (s *Server) ActiveConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Drain shuts the server down gracefully: stop accepting, let in-flight
// requests finish (handlers observe the draining flag between requests),
// and after timeout force-close whatever idle connections remain so
// their parked handler threads unblock. It returns the number of
// force-closed connections; the error is non-nil only if the runtime
// failed to quiesce within a second timeout window.
func (s *Server) Drain(timeout time.Duration) (forced int, err error) {
	s.draining.Store(true)
	s.ln.Close() //nolint:errcheck
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if s.ActiveConns() == 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.mu.Lock()
	for nc := range s.conns {
		forced++
		nc.Close()
	}
	s.mu.Unlock()
	select {
	case <-s.done:
		return forced, nil
	case <-time.After(timeout):
		return forced, fmt.Errorf("shop: server did not quiesce within %v after drain", timeout)
	}
}

// Done exposes completion of the accept loop and all connection threads.
func (s *Server) Done() <-chan struct{} { return s.done }
