package main

import (
	"fmt"
	"io"
	"net"
	"syscall"
	"time"
)

// rawConn is a blocking TCP socket driven by plain read and write system
// calls. The generator does not use package net's connections: those
// park the goroutine in the Go scheduler and wake it through the
// network poller, which adds scheduler hops of tens of microseconds to
// every reply, time that would be read as the server's.
type rawConn struct{ fd int }

// replyTimeout bounds every read, so a hung server fails the run
// rather than hanging the benchmark.
const replyTimeout = 20 * time.Second

func dialRaw(addr string) (*rawConn, error) {
	tcp, err := net.ResolveTCPAddr("tcp4", addr)
	if err != nil {
		return nil, err
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, fmt.Errorf("socket: %w", err)
	}
	sa := &syscall.SockaddrInet4{Port: tcp.Port}
	copy(sa.Addr[:], tcp.IP.To4())
	tv := syscall.NsecToTimeval(int64(replyTimeout))
	for _, err := range []error{
		syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1),
		syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv),
		syscall.Connect(fd, sa),
	} {
		if err != nil {
			syscall.Close(fd)
			return nil, fmt.Errorf("connect %s: %w", addr, err)
		}
	}
	return &rawConn{fd: fd}, nil
}

func (c *rawConn) Read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(c.fd, p)
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return 0, fmt.Errorf("read: %w", err)
		case n == 0:
			return 0, io.EOF
		}
		return n, nil
	}
}

func (c *rawConn) Write(p []byte) (int, error) {
	done := 0
	for done < len(p) {
		n, err := syscall.Write(c.fd, p[done:])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return done, fmt.Errorf("write: %w", err)
		}
		done += n
	}
	return done, nil
}

// Close closes the socket. A second Close does nothing: the descriptor
// number may belong to another file by then.
func (c *rawConn) Close() error {
	if c.fd < 0 {
		return nil
	}
	fd := c.fd
	c.fd = -1
	return syscall.Close(fd)
}
