package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// client is one persistent connection of the generator: one session,
// one deterministic request stream, one request in flight at a time.
type client struct {
	conn    *rawConn
	rd      *bufio.Reader
	session int
	next    func() request
	tally   *tally

	line, body []byte // reused buffers
	firstErr   error  // first failed request, for the report
}

func dialClient(addr string, session int, next func() request) (*client, error) {
	conn, err := dialRaw(addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, rd: bufio.NewReader(conn), session: session, next: next, tally: newTally()}, nil
}

func (c *client) close() { c.conn.Close() }

// roundTrip sends r and reads the reply. It returns the body (valid
// until the next call) when the status is 2xx.
func (c *client) roundTrip(r request) ([]byte, error) {
	c.line = r.appendLine(c.line[:0], c.session)
	if _, err := c.conn.Write(c.line); err != nil {
		return nil, err
	}
	header, err := c.rd.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	// "<status> <body-length>\n"
	sp := bytes.IndexByte(header, ' ')
	if sp < 0 {
		return nil, fmt.Errorf("malformed response header %q", header)
	}
	status, err1 := strconv.Atoi(string(header[:sp]))
	length, err2 := strconv.Atoi(string(header[sp+1 : len(header)-1]))
	if err1 != nil || err2 != nil || length < 0 {
		return nil, fmt.Errorf("malformed response header %q", header)
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	if _, err := io.ReadFull(c.rd, c.body); err != nil {
		return nil, err
	}
	if status < 200 || status > 299 {
		return nil, fmt.Errorf("status %d: %s", status, c.body)
	}
	return c.body, nil
}

// do sends r, checks the reply against the session's tally and reports
// whether the request succeeded. A connection that failed once is dead:
// every later request on it fails without being sent.
func (c *client) do(r request) bool {
	if c.firstErr != nil {
		return false
	}
	prefix, suffix := c.tally.expect(r)
	body, err := c.roundTrip(r)
	if err == nil && !checkBody(body, prefix, suffix) {
		err = fmt.Errorf("session %d: reply %q, want %q<id>%q", c.session, body, prefix, suffix)
	}
	if err != nil {
		c.firstErr = err
		return false
	}
	return true
}

// phase is what one connection measured in one phase.
type phase struct {
	sent, failed, dropped int
	latNs                 []float64 // open loop: reply time - due time; closed loop: round trip
	lagNs                 []float64 // open loop only: how late the generator itself sent
	doneNs                []float64 // closed loop only: reply time - phase start
	elapsed               time.Duration
}

// backlogGrace is how long after the end of an open-loop phase a
// connection keeps sending arrivals that were due inside the phase.
// Arrivals still unsent after it are counted as dropped (and failed).
// It is long because a stall of the machine should read as latency, as
// it would for real clients; only a server that cannot drain the backlog
// at all drops arrivals.
const backlogGrace = 30 * time.Second

// openLoop sends the stream's requests at the pacer's due times for
// dur, whatever the replies do: a reply slower than the next gap makes
// the next request late, and its latency still counts from its due time.
func (c *client) openLoop(start time.Time, dur time.Duration, p *pacer) phase {
	var ph phase
	sleeper := newSleeper()
	defer sleeper.close()
	free := start // when the connection last became free to send
	for {
		off := p.next()
		if off >= dur {
			break
		}
		due := start.Add(off)
		if time.Since(start) > dur+backlogGrace {
			ph.dropped++
			continue
		}
		sleeper.until(due)
		sentAt := time.Now()
		ok := c.do(c.next())
		ph.sent++
		if !ok {
			ph.failed++
			continue
		}
		// The generator is late by however long after both the due time and
		// the previous reply it sent; waiting for that reply is the server's
		// doing and is counted in the latency, not here.
		if free.After(due) {
			ph.lagNs = append(ph.lagNs, float64(sentAt.Sub(free)))
		} else {
			ph.lagNs = append(ph.lagNs, float64(sentAt.Sub(due)))
		}
		free = time.Now()
		ph.latNs = append(ph.latNs, float64(free.Sub(due)))
	}
	ph.elapsed = time.Since(start)
	return ph
}

// closedLoop sends the next request as soon as the previous reply is in,
// from start until end.
func (c *client) closedLoop(start, end time.Time) phase {
	var ph phase
	for t0 := time.Now(); t0.Before(end); {
		ok := c.do(c.next())
		t1 := time.Now()
		ph.sent++
		if ok {
			ph.latNs = append(ph.latNs, float64(t1.Sub(t0)))
			ph.doneNs = append(ph.doneNs, float64(t1.Sub(start)))
		} else {
			ph.failed++
		}
		t0 = t1
	}
	ph.elapsed = time.Since(start)
	return ph
}

// sleeper waits for due times tens of microseconds apart. time.Sleep
// rounds a sub-millisecond wait up by about a millisecond, which would
// read as server latency, and spinning through every gap would take a
// core from the server under test. So the goroutine pins itself to its
// OS thread, sets that thread's timer slack to a microsecond, sleeps in
// the kernel until just before the due time and yield-spins the rest.
type sleeper struct{ oldSlack uintptr }

const (
	prGetTimerSlack = 30
	prSetTimerSlack = 29
	spinWindow      = 15 * time.Microsecond
)

func newSleeper() *sleeper {
	runtime.LockOSThread()
	old, _, _ := syscall.Syscall(syscall.SYS_PRCTL, prGetTimerSlack, 0, 0)
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0) //nolint:errcheck // a refusal only makes the generator later, which lag_p50_us reports
	return &sleeper{oldSlack: old}
}

func (s *sleeper) close() {
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, s.oldSlack, 0) //nolint:errcheck
	runtime.UnlockOSThread()
}

func (s *sleeper) until(due time.Time) {
	for {
		wait := time.Until(due)
		if wait <= 0 {
			return
		}
		if wait > spinWindow {
			ts := syscall.NsecToTimespec(int64(wait - spinWindow))
			syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early return is handled by the loop
		} else {
			runtime.Gosched()
		}
	}
}
