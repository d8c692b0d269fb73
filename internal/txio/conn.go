package txio

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/stm"
)

// Conn is the transactional wrapper for a bidirectional byte stream (a
// network connection), after the scheme of paper §4.4:
//
//   - Writes go to a per-transaction buffer B_W and reach the device only
//     on commit; an abort discards B_W.
//   - Reads advance a cursor over one input buffer, which refills from
//     the device in chunks. Commit trims the consumed prefix; an abort
//     rewinds the cursor, so the retry re-reads exactly what the aborted
//     attempt saw. The paper's replay buffer B_R is the unconsumed tail of
//     the input buffer, not a copy.
//
// A finished transaction's state and B_W become the connection's spare
// once the commit's device write has returned, or at rollback.
//
// Any number of transactions may write at once. One at a time may read
// (the usual shape: one client or per-connection server thread); a
// transaction that reads while another's reads are uncommitted panics.
type Conn struct {
	raw io.ReadWriter

	mu     sync.Mutex
	in     []byte                 // input read from raw that no commit has consumed
	reader *connTx                // the transaction whose reads are uncommitted, or nil
	spare  atomic.Pointer[connTx] // a finished transaction's state, for the next
}

type connTx struct {
	c    *Conn
	wbuf []byte // B_W
	cur  int    // read cursor into c.in, moved only while this is c.reader
}

func (s *connTx) owner() any { return s.c }

// NewConn wraps a raw stream.
func NewConn(raw io.ReadWriter) *Conn { return &Conn{raw: raw} }

func (c *Conn) stateFor(tx *stm.Tx) *connTx {
	return stateOn(tx, c, func() *connTx {
		if s := c.spare.Swap(nil); s != nil {
			return s
		}
		return &connTx{c: c}
	})
}

// Write defers p until tx commits.
func (c *Conn) Write(tx *stm.Tx, p []byte) (int, error) {
	s := c.stateFor(tx)
	s.wbuf = append(s.wbuf, p...)
	return len(p), nil
}

// WriteString defers str until tx commits.
func (c *Conn) WriteString(tx *stm.Tx, str string) (int, error) {
	s := c.stateFor(tx)
	s.wbuf = append(s.wbuf, str...)
	return len(str), nil
}

// HasReplay reports whether input that no commit has consumed is
// buffered: an aborted attempt's bytes or read-ahead of later ones.
// Callers that park on the raw device's readability must treat it as
// readable too.
func (c *Conn) HasReplay() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.in) > 0
}

// lockReader takes c.mu for a read by tx and makes tx the reader. Two
// cursors over one buffer cannot both be committed, so a second reader
// panics.
func (c *Conn) lockReader(tx *stm.Tx) *connTx {
	s := c.stateFor(tx)
	c.mu.Lock()
	if c.reader != nil && c.reader != s {
		c.mu.Unlock()
		panic("txio: a second transaction read a Conn whose reads are uncommitted")
	}
	c.reader = s
	return s
}

// fill appends the next chunk of the raw stream to the input buffer. The
// caller holds c.mu and is the reader, the only one who moves the buffer,
// so the raw Read runs unlocked: it writes only past len(c.in).
func (c *Conn) fill() error {
	if len(c.in) == cap(c.in) {
		c.in = slices.Grow(c.in, 1024)
	}
	free := c.in[len(c.in):cap(c.in)]
	c.mu.Unlock()
	n, err := c.raw.Read(free)
	c.mu.Lock()
	c.in = c.in[:len(c.in)+n]
	return err
}

// Read fills p from the input buffer, refilling it from the raw stream
// only when every buffered byte has been consumed.
func (c *Conn) Read(tx *stm.Tx, p []byte) (int, error) {
	s := c.lockReader(tx)
	defer c.mu.Unlock()
	if s.cur == len(c.in) && len(p) > 0 {
		if err := c.fill(); s.cur == len(c.in) {
			return 0, err
		}
	}
	n := copy(p, c.in[s.cur:])
	s.cur += n
	return n, nil
}

// maxLineLen bounds how much ReadLine buffers while it looks for '\n',
// so a peer that never sends one cannot grow the input without limit.
const maxLineLen = 64 << 10

// ErrLineTooLong is ReadLine's error once more than 64 KiB arrived
// without a '\n'.
var ErrLineTooLong = errors.New("txio: line too long")

// ReadLine reads up to and including '\n' and returns the line without
// the terminator; if the stream fails first, it returns what it read.
// Once more than 64 KiB are buffered without a '\n', it consumes them and
// returns ErrLineTooLong. It is the unit the minihttp protocol parser
// consumes.
func (c *Conn) ReadLine(tx *stm.Tx) (string, error) {
	s := c.lockReader(tx)
	defer c.mu.Unlock()
	var err error
	for scanned := s.cur; ; {
		if i := bytes.IndexByte(c.in[scanned:], '\n'); i >= 0 {
			line := string(c.in[s.cur : scanned+i])
			s.cur = scanned + i + 1
			return line, nil
		}
		if err != nil {
			line := string(c.in[s.cur:])
			s.cur = len(c.in)
			return line, err
		}
		if len(c.in)-s.cur > maxLineLen {
			s.cur = len(c.in)
			return "", ErrLineTooLong
		}
		scanned = len(c.in)
		err = c.fill()
	}
}

// ReadFull fills p completely (like io.ReadFull over the wrapper).
func (c *Conn) ReadFull(tx *stm.Tx, p []byte) error {
	got := 0
	for got < len(p) {
		n, err := c.Read(tx, p[got:])
		if err != nil {
			return err
		}
		got += n
	}
	return nil
}

// release ends s's claim on the input if it read. A commit trims the
// consumed prefix; after an abort the next reader's cursor starts at the
// front again, which is the rewind.
func (s *connTx) release(consumed bool) {
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reader == s {
		if consumed {
			c.in = c.in[:copy(c.in, c.in[s.cur:])]
		}
		c.reader = nil
	}
}

// recycle empties s and makes it the connection's spare.
func (s *connTx) recycle() {
	s.wbuf, s.cur = s.wbuf[:0], 0
	s.c.spare.Store(s)
}

// Commit consumes what the transaction read and flushes B_W.
func (s *connTx) Commit() {
	s.release(true)
	if len(s.wbuf) > 0 {
		s.c.raw.Write(s.wbuf) //nolint:errcheck // peer teardown races are benign at commit
	}
	s.recycle()
}

// Rollback discards B_W and rewinds the input.
func (s *connTx) Rollback() { s.release(false); s.recycle() }

// BufferedBytes reports B_W plus the input consumed so far (Table 8
// accounting).
func (s *connTx) BufferedBytes() int { return len(s.wbuf) + s.cur }
