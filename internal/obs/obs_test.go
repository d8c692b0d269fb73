package obs

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stm"
)

// phasedRT returns a runtime whose sampled per-site series are exact
// for contend: its waiter, the second section to begin, has its first
// acquire and its block on the sample ((1+ticket)%ProfilePeriod == 0,
// see stm's profile.go) and the holder has neither. The sections burned
// to reach that phase are empty, and their commits are reset away.
func phasedRT() *stm.Runtime {
	rt := stm.NewRuntime()
	for {
		tx := rt.Begin()
		next := tx.Ticket() + 1
		tx.Commit()
		if (next+2)%stm.ProfilePeriod == 0 {
			break
		}
	}
	rt.Stats().Reset()
	return rt
}

// contend produces real contention so every surface has data: acquires,
// a contended block with measurable block time, and recorder events.
func contend(t *testing.T, rt *stm.Runtime, class string) *stm.Class {
	t.Helper()
	c := stm.NewClass(class, stm.FieldSpec{Name: "v", Kind: stm.KindWord})
	o := stm.NewCommitted(c)
	v := c.Field("v")

	holder := rt.Begin()
	holder.WriteInt(o, v, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		tx := rt.Begin()
		for {
			ok := func() (ok bool) {
				defer func() {
					if r := recover(); r != nil {
						if ab, isAb := r.(*stm.Aborted); isAb && ab.Tx == tx {
							ok = false
							return
						}
						panic(r)
					}
				}()
				tx.WriteInt(o, v, 2)
				return true
			}()
			if ok {
				tx.Commit()
				return
			}
			tx.Reset()
		}
	}()
	time.Sleep(50 * time.Millisecond)
	holder.Commit()
	<-done
	return c
}

func TestMetricsFormat(t *testing.T) {
	rt := phasedRT()
	contend(t, rt, "ObsMetrics")

	out := Metrics(rt.Stats().Snapshot(), rt.Profile().Snapshot(), rt.Recorder())
	for _, want := range []string{
		"# TYPE sbd_commits_total counter",
		"sbd_commits_total 2",
		"sbd_contended_acquires_total 1",
		"# TYPE sbd_abort_rate gauge",
		"# TYPE sbd_slot_wait_seconds_total counter",
		"sbd_slot_wait_seconds_total 0",
		fmt.Sprintf(`sbd_site_acquires_total{site="ObsMetrics.v"} %d`, stm.ProfilePeriod),
		`sbd_site_contended_total{site="ObsMetrics.v"} 1`,
		`sbd_site_block_seconds_total{site="ObsMetrics.v"}`,
		"sbd_recorder_events_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n%s", want, out)
		}
	}
}

func TestMetricsRendersInfiniteAbortRate(t *testing.T) {
	snap := stm.StatsSnapshot{Aborts: 3}
	out := Metrics(snap, nil, stm.NewRuntime().Recorder())
	if !strings.Contains(out, "sbd_abort_rate +Inf") {
		t.Fatalf("livelocked abort rate not rendered as +Inf:\n%s", out)
	}
	if FormatRate(snap.AbortRate()) != "inf" {
		t.Fatalf("FormatRate(+Inf) = %q, want inf", FormatRate(snap.AbortRate()))
	}
	if FormatRate(0.5) != "0.50" {
		t.Fatalf("FormatRate(0.5) = %q", FormatRate(0.5))
	}
}

func TestProfileTableRendering(t *testing.T) {
	rt := stm.NewRuntime()
	contend(t, rt, "ObsTable")
	out := ProfileTable(rt.Profile().Snapshot())
	if !strings.Contains(out, "ObsTable.v") {
		t.Fatalf("table missing the site:\n%s", out)
	}
	if !strings.Contains(out, "Site") || !strings.Contains(out, "Mode") || !strings.Contains(out, "Block") {
		t.Fatalf("table missing headers:\n%s", out)
	}
	// Two plain writes teach the policy word nothing: still the paper's mode.
	if !strings.Contains(out, "visible") {
		t.Fatalf("table does not show the site's mode:\n%s", out)
	}
	if got := ProfileTable(nil); !strings.Contains(got, "no lock-site activity") {
		t.Fatalf("empty profile rendering = %q", got)
	}
}

// serveLoopback serves srv on a loopback TCP port and returns a client
// that GETs one path and returns the body of a 200 response. Like
// TestServerOverTCP it skips the test when it cannot bind.
func serveLoopback(t *testing.T, srv *Server) func(path string) (string, error) {
	t.Helper()
	addr, err := srv.ServeTCP("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot bind TCP: %v", err)
	}
	return func(path string) (string, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return "", err
		}
		defer conn.Close()
		fmt.Fprintf(conn, "GET %s HTTP/1.0\r\n\r\n", path)
		resp, err := io.ReadAll(conn)
		if err != nil {
			return "", err
		}
		head, body, _ := strings.Cut(string(resp), "\r\n\r\n")
		if status, _, _ := strings.Cut(head, "\r\n"); status != "HTTP/1.0 200 OK" {
			return "", fmt.Errorf("%s: %s: %s", path, status, strings.TrimSpace(body))
		}
		return body, nil
	}
}

// TestServerEndpoints scrapes /metrics, /profile and /events, and one
// unknown path, over loopback TCP. TestServerOverTCP sends a real
// client's request, headers and all, to one endpoint.
func TestServerEndpoints(t *testing.T) {
	rt := stm.NewRuntime()
	contend(t, rt, "ObsServe")
	get := serveLoopback(t, NewServer(rt))

	metrics, err := get("/metrics")
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	if !strings.Contains(metrics, `sbd_site_acquires_total{site="ObsServe.v"}`) {
		t.Fatalf("/metrics missing site series:\n%s", metrics)
	}

	profile, err := get("/profile")
	if err != nil {
		t.Fatalf("/profile: %v", err)
	}
	if !strings.Contains(profile, "ObsServe.v") {
		t.Fatalf("/profile missing site:\n%s", profile)
	}

	events, err := get("/events")
	if err != nil {
		t.Fatalf("/events: %v", err)
	}
	if !strings.Contains(events, "blocked") || !strings.Contains(events, "granted") {
		t.Fatalf("/events missing block/grant history:\n%s", events)
	}

	if _, err := get("/nope"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown path error = %v, want 404", err)
	}
}

func TestServerOverTCP(t *testing.T) {
	rt := stm.NewRuntime()
	contend(t, rt, "ObsTCP")

	addr, err := NewServer(rt).ServeTCP("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot bind TCP: %v", err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// A real HTTP client request line, with headers, CRLF line endings.
	fmt.Fprintf(conn, "GET /metrics HTTP/1.1\r\nHost: %s\r\nUser-Agent: curl/8\r\n\r\n", addr)
	resp, _ := io.ReadAll(conn)
	text := string(resp)
	if !strings.HasPrefix(text, "HTTP/1.0 200 OK\r\n") {
		t.Fatalf("bad status line:\n%s", text)
	}
	if !strings.Contains(text, `sbd_site_acquires_total{site="ObsTCP.v"}`) {
		t.Fatalf("TCP /metrics missing site series:\n%s", text)
	}
}

// A request line that arrives in two TCP segments is one request line:
// the server must not parse the first segment alone (which would answer
// 404 for "/met").
func TestServerReadsSplitRequestLine(t *testing.T) {
	addr, err := NewServer(stm.NewRuntime()).ServeTCP("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot bind TCP: %v", err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	io.WriteString(conn, "GET /met")
	time.Sleep(50 * time.Millisecond)
	io.WriteString(conn, "rics HTTP/1.1\r\nHost: x\r\n\r\n")
	resp, _ := io.ReadAll(conn)
	if text := string(resp); !strings.HasPrefix(text, "HTTP/1.0 200 OK\r\n") {
		t.Fatalf("split request line misread:\n%s", text)
	}
}

func TestDynamicServerFollowsRuntime(t *testing.T) {
	rt1 := stm.NewRuntime()
	rt2 := stm.NewRuntime()
	contend(t, rt2, "ObsDyn")

	var cur atomic.Pointer[stm.Runtime]
	cur.Store(rt1)
	get := serveLoopback(t, NewDynamicServer(func() *stm.Runtime { return cur.Load() }))

	before, err := get("/profile")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(before, "ObsDyn.v") {
		t.Fatalf("idle runtime already shows ObsDyn:\n%s", before)
	}
	cur.Store(rt2)
	after, err := get("/profile")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(after, "ObsDyn.v") {
		t.Fatalf("dynamic server did not follow the runtime switch:\n%s", after)
	}
}
