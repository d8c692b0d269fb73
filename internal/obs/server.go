package obs

import (
	"bufio"
	"fmt"
	"net"
	"strings"

	"repro/internal/minihttp"
	"repro/internal/stm"
)

// Server serves the observability endpoints for one STM runtime:
//
//	/metrics  Prometheus text exposition (counters + per-site profile)
//	/profile  per-site contention table, hottest first
//	/events   flight-recorder dump, oldest first
//	/stats    stm.StatsSnapshot as JSON (machine-readable deltas:
//	          the benchmark scrapes it before/after a serving run)
//
// It speaks plain HTTP/1.0 over TCP, so a test, curl or Prometheus can
// scrape a live run.
type Server struct {
	src func() *stm.Runtime
}

// NewServer creates a server reading from rt.
func NewServer(rt *stm.Runtime) *Server {
	return &Server{src: func() *stm.Runtime { return rt }}
}

// NewDynamicServer creates a server that asks src for the runtime on
// every request — for tools like sbd-bench whose current runtime
// changes between iterations. src runs on request goroutines and must
// be safe for concurrent use; it must not return nil.
func NewDynamicServer(src func() *stm.Runtime) *Server { return &Server{src: src} }

// handle produces the response for one request path.
func (s *Server) handle(path string) (status int, body string) {
	rt := s.src()
	switch path {
	case "/metrics":
		return 200, Metrics(rt.Stats().Snapshot(), rt.Profile().Snapshot(), rt.Recorder())
	case "/profile":
		return 200, ProfileTable(rt.Profile().Snapshot())
	case "/events":
		return 200, EventsDump(rt.Recorder())
	case "/stats":
		return 200, StatsJSON(rt.Stats().Snapshot())
	default:
		return 404, fmt.Sprintf("unknown path %s (try /metrics, /profile, /events, /stats)\n", path)
	}
}

// ServeTCP binds addr (e.g. "127.0.0.1:0"), serves real HTTP/1.0 on it,
// and returns the bound address. Each scrape is one-shot: request,
// response, close — exactly what curl and Prometheus do by default.
func (s *Server) ServeTCP(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serveTCPConn(conn)
		}
	}()
	return ln.Addr().String(), nil
}

// serveTCPConn answers one real-HTTP request. It reads up to the first
// '\n' or 4 KiB, whichever comes first, however many segments the line
// arrives in; parses the request line leniently (the " HTTP/1.x" suffix
// and any headers are ignored); and writes a minimal HTTP/1.0 response.
func (s *Server) serveTCPConn(conn net.Conn) {
	defer conn.Close()
	// The error is dropped on purpose: a line cut short by EOF or by the
	// 4 KiB bound is parsed as it stands, and a 400 answers a bad one.
	raw, _ := bufio.NewReaderSize(conn, 4096).ReadSlice('\n')
	if len(raw) == 0 {
		return
	}
	line := strings.TrimRight(string(raw), "\r\n")
	if i := strings.LastIndex(line, " HTTP/"); i >= 0 {
		line = line[:i]
	}
	req, err := minihttp.ParseRequest(line)
	var status int
	var body string
	if err != nil {
		status, body = 400, err.Error()+"\n"
	} else {
		status, body = s.handle(req.Path)
	}
	text := map[int]string{200: "OK", 400: "Bad Request", 404: "Not Found"}[status]
	fmt.Fprintf(conn, "HTTP/1.0 %d %s\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: %d\r\n\r\n%s",
		status, text, len(body), body)
}
