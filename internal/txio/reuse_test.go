package txio

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/stm"
)

// recordingStream serves in to readers and records every raw Write as
// one entry. Write yields before it copies, so a buffer handed to the
// next transaction before the device write returned would be caught
// half overwritten.
type recordingStream struct {
	in     []byte
	mu     sync.Mutex
	writes []string
}

func (r *recordingStream) Read(p []byte) (int, error) {
	if len(r.in) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.in)
	r.in = r.in[n:]
	return n, nil
}

func (r *recordingStream) Write(p []byte) (int, error) {
	runtime.Gosched()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.writes = append(r.writes, string(p))
	return len(p), nil
}

func (r *recordingStream) Writes() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.writes...)
}

// TestConnReusedBufferSendsOnlyCommitted: a large write that aborts
// leaves its capacity in the connection's spare buffer, and the small
// reply the next transaction commits from that buffer goes out alone.
func TestConnReusedBufferSendsOnlyCommitted(t *testing.T) {
	rt := stm.NewRuntime()
	raw := &recordingStream{}
	c := NewConn(raw)
	big := strings.Repeat("x", 64<<10)

	tx := rt.Begin()
	c.WriteString(tx, big) //nolint:errcheck
	tx.Reset()
	tx.AbandonAfterReset()

	tx = rt.Begin()
	if s := c.stateFor(tx); cap(s.wbuf) < len(big) {
		t.Fatalf("the next transaction got a fresh B_W (cap %d), not the aborted one's", cap(s.wbuf))
	}
	c.WriteString(tx, "small") //nolint:errcheck
	tx.Commit()
	if got := raw.Writes(); len(got) != 1 || got[0] != "small" {
		t.Fatalf("device got %d writes, first %.20q; want exactly \"small\"", len(got), got)
	}
}

// TestConnReplayAfterResetWritesOnce: a section that reads a request and
// buffers its reply, is reset, and replays sends the reply once.
func TestConnReplayAfterResetWritesOnce(t *testing.T) {
	rt := stm.NewRuntime()
	raw := &recordingStream{in: []byte("GET /a\n")}
	c := NewConn(raw)
	tx := rt.Begin()
	section := func() {
		line, err := c.ReadLine(tx)
		if err != nil || line != "GET /a" {
			t.Fatalf("ReadLine = %q, %v", line, err)
		}
		c.WriteString(tx, "reply to "+line+"\n") //nolint:errcheck
	}
	section()
	tx.Reset()
	section()
	tx.Commit()
	if got := raw.Writes(); len(got) != 1 || got[0] != "reply to GET /a\n" {
		t.Fatalf("device writes %q; want the reply once", got)
	}
}

// TestConnConcurrentWritersFlushOwnBytes: two transactions writing one
// Conn at once, committing or aborting, each flush exactly the bytes of
// their own committed attempt, though both take and return the
// connection's spare buffer. Run it under -race.
func TestConnConcurrentWritersFlushOwnBytes(t *testing.T) {
	rt := stm.NewRuntime()
	raw := &recordingStream{}
	c := NewConn(raw)
	const writers, rounds = 2, 300
	reply := func(w, i, attempt int) string {
		return strings.Repeat(fmt.Sprintf("w%d.%d.%d|", w, i, attempt), 1+(i*7+attempt*13)%40)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tx := rt.Begin()
				attempt := 0
				for ; attempt < i%3; attempt++ { // aborted attempts
					c.WriteString(tx, reply(w, i, attempt)) //nolint:errcheck
					tx.Reset()
				}
				s := reply(w, i, attempt)
				c.Write(tx, []byte(s[:len(s)/2])) //nolint:errcheck
				c.WriteString(tx, s[len(s)/2:])   //nolint:errcheck
				tx.Commit()
			}
		}()
	}
	wg.Wait()
	want := map[string]bool{}
	for w := 0; w < writers; w++ {
		for i := 0; i < rounds; i++ {
			want[reply(w, i, i%3)] = true
		}
	}
	got := raw.Writes()
	for _, g := range got {
		if !want[g] {
			t.Fatalf("device got a write no committed attempt made: %.60q", g)
		}
		delete(want, g)
	}
	if len(got) != writers*rounds || len(want) != 0 {
		t.Fatalf("%d device writes, %d committed replies missing; want %d writes",
			len(got), len(want), writers*rounds)
	}
}
