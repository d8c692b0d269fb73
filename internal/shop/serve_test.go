package shop_test

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/minihttp"
	"repro/internal/shop"
)

// tcpGet performs one request over a raw TCP connection to the server.
func tcpGet(t *testing.T, c net.Conn, path string) (int, string) {
	t.Helper()
	if _, err := c.Write([]byte("GET " + path + "\n")); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	var header strings.Builder
	buf := make([]byte, 1)
	for {
		if _, err := c.Read(buf); err != nil {
			t.Fatalf("read header for %s: %v", path, err)
		}
		if buf[0] == '\n' {
			break
		}
		header.WriteByte(buf[0])
	}
	status, length, err := minihttp.ParseResponseHeader(header.String())
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, length)
	for got := 0; got < length; {
		n, err := c.Read(body[got:])
		if err != nil {
			t.Fatalf("read body for %s: %v", path, err)
		}
		got += n
	}
	return status, string(body)
}

func TestServerServesTCPAndDrains(t *testing.T) {
	rt := core.New()
	sh, err := shop.New(rt, shop.Config{Items: 4, Stock: 100})
	if err != nil {
		t.Fatal(err)
	}
	srv := shop.NewServer(rt, sh)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// An active client that completes a few transactional requests.
	c1, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if st, body := tcpGet(t, c1, "/healthz"); st != 200 || body != "ok\n" {
		t.Fatalf("/healthz over TCP: %d %q", st, body)
	}
	if st, _ := tcpGet(t, c1, "/add?session=1&item=2&qty=3"); st != 200 {
		t.Fatalf("/add over TCP: %d", st)
	}
	if st, body := tcpGet(t, c1, "/checkout?session=1"); st != 200 || !strings.HasPrefix(body, "order 1 ") {
		t.Fatalf("/checkout over TCP: %d %q", st, body)
	}

	// An idle keep-alive client: its handler thread is parked in
	// WaitReadable and must be force-closed by the drain.
	c2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := tcpGet(t, c2, "/browse?item=0"); st != 200 {
		t.Fatal("idle conn priming request failed")
	}

	c1.Close() //nolint:errcheck
	// Give the server a beat to notice c1's close so only c2 remains.
	deadline := time.Now().Add(2 * time.Second)
	for srv.ActiveConns() > 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	forced, err := srv.Drain(200 * time.Millisecond)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if forced != 1 {
		t.Fatalf("forced = %d, want 1 (the idle keep-alive conn)", forced)
	}
	select {
	case <-srv.Done():
	default:
		t.Fatal("Done() not closed after successful drain")
	}

	// New connections are refused once draining.
	if _, err := net.Dial("tcp", addr); err == nil {
		t.Fatal("dial succeeded after drain")
	}

	tx := rt.STM().Begin()
	placed := sh.OrdersPlaced(tx)
	served := sh.Served(tx)
	tx.Commit()
	if placed != 1 {
		t.Fatalf("orders placed = %d, want 1", placed)
	}
	if served != 4 {
		t.Fatalf("served = %d, want 4", served)
	}
}

// TestLongRequestLineClosesConn: a peer that sends a megabyte without a
// newline gets its connection closed once the line passes the
// connection's bound, instead of growing the server's input buffer for
// as long as it keeps sending.
func TestLongRequestLineClosesConn(t *testing.T) {
	rt := core.New()
	sh, err := shop.New(rt, shop.Config{Items: 2, Stock: 5})
	if err != nil {
		t.Fatal(err)
	}
	srv := shop.NewServer(rt, sh)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(time.Second) //nolint:errcheck

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// The write fails or stalls once the server hangs up; only the read
	// side says whether it did. Closing c ends a stalled write.
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		c.Write([]byte("GET /" + strings.Repeat("x", 1<<20))) //nolint:errcheck
	}()
	defer func() { c.Close(); <-wrote }()
	c.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	n, err := c.Read(make([]byte, 1))
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("connection still open 5s after a 1 MiB line without a newline")
	}
	if err == nil {
		t.Fatalf("server answered %d bytes to an unterminated line instead of closing", n)
	}
}
