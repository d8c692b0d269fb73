package minihttp

import (
	"net"
	"testing"
	"time"
)

func TestNetConnWaitReadableBuffers(t *testing.T) {
	local, peer := net.Pipe()
	nc := NewNetConn(local)

	go peer.Write([]byte("hello\n")) //nolint:errcheck
	if !nc.WaitReadable() {
		t.Fatal("WaitReadable returned false with bytes pending")
	}
	// A second WaitReadable must not consume or block: the bytes sit in
	// the buffer until Read drains them.
	if !nc.WaitReadable() {
		t.Fatal("WaitReadable lost the buffered bytes")
	}
	buf := make([]byte, 16)
	n, err := nc.Read(buf)
	if err != nil || string(buf[:n]) != "hello\n" {
		t.Fatalf("Read after WaitReadable: %q, %v", buf[:n], err)
	}

	// Peer hangs up: WaitReadable must report unreadable, and the error
	// must be sticky across Read calls.
	go peer.Close() //nolint:errcheck
	if nc.WaitReadable() {
		t.Fatal("WaitReadable true after peer close with empty buffer")
	}
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("Read succeeded after peer close")
	}
	if nc.WaitReadable() {
		t.Fatal("sticky error not reported by WaitReadable")
	}
}

func TestNetConnPartialReadKeepsRemainder(t *testing.T) {
	local, peer := net.Pipe()
	nc := NewNetConn(local)

	go peer.Write([]byte("abcdef")) //nolint:errcheck
	if !nc.WaitReadable() {
		t.Fatal("WaitReadable")
	}
	small := make([]byte, 2)
	if n, err := nc.Read(small); err != nil || string(small[:n]) != "ab" {
		t.Fatalf("first read: %q, %v", small[:n], err)
	}
	// Remainder still buffered: readable without touching the socket.
	if !nc.WaitReadable() {
		t.Fatal("remainder lost")
	}
	rest := make([]byte, 8)
	if n, err := nc.Read(rest); err != nil || string(rest[:n]) != "cdef" {
		t.Fatalf("second read: %q, %v", rest[:n], err)
	}
}

// TestNetConnCloseUnblocksWaitReadable is the drain path: the server
// force-closes an idle connection from another goroutine and the
// handler thread parked in WaitReadable must come back (with false).
func TestNetConnCloseUnblocksWaitReadable(t *testing.T) {
	local, peer := net.Pipe()
	defer peer.Close()
	nc := NewNetConn(local)

	got := make(chan bool, 1)
	go func() { got <- nc.WaitReadable() }()
	time.Sleep(10 * time.Millisecond) // let the goroutine park in the read
	nc.Close()
	select {
	case readable := <-got:
		if readable {
			t.Fatal("WaitReadable reported readable on a closed conn")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock WaitReadable")
	}
}

// TestNetConnWaitReadableAllocatesNothing: a serving thread parks in
// WaitReadable once per request, so a steady-state park-and-read cycle
// over a real socket must not allocate.
func TestNetConnWaitReadableAllocatesNothing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	nc := NewNetConn(server)
	defer nc.Close()

	req, buf := []byte("GET /browse\n"), make([]byte, 64)
	cycle := func() {
		if _, err := client.Write(req); err != nil {
			t.Fatal(err)
		}
		if !nc.WaitReadable() {
			t.Fatal("WaitReadable false on a live connection")
		}
		for got := 0; got < len(req); {
			n, err := nc.Read(buf[got:])
			if err != nil {
				t.Fatal(err)
			}
			got += n
		}
	}
	cycle() // let the poller register the sockets
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("WaitReadable + Read allocated %.1f times per request", allocs)
	}
}

func TestNetConnWritePassesThrough(t *testing.T) {
	local, peer := net.Pipe()
	nc := NewNetConn(local)
	go nc.Write([]byte("out")) //nolint:errcheck
	buf := make([]byte, 8)
	n, err := peer.Read(buf)
	if err != nil || string(buf[:n]) != "out" {
		t.Fatalf("peer read: %q, %v", buf[:n], err)
	}
	nc.Close()
	peer.Close()
}
