package txio

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/stm"
)

// Writer is a transactional wrapper around an io.Writer (console, log,
// append-only sink). Output is buffered per transaction (B_W) and
// flushed atomically when the transaction commits; an abort discards the
// buffer. Because writes are deferred, multiple transactions can use the
// same Writer concurrently without serializing on the device — the
// scalability argument for wrappers over inevitable transactions
// (paper §3.4).
type Writer struct {
	dst     io.Writer
	mu      sync.Mutex // serializes flushes to dst
	flushes int
}

type writerTx struct {
	w   *Writer
	buf []byte
}

func (s *writerTx) owner() any { return s.w }

// NewWriter wraps dst.
func NewWriter(dst io.Writer) *Writer { return &Writer{dst: dst} }

func (w *Writer) stateFor(tx *stm.Tx) *writerTx {
	return stateOn(tx, w, func() *writerTx { return &writerTx{w: w} })
}

// Write buffers p for transaction tx.
func (w *Writer) Write(tx *stm.Tx, p []byte) (int, error) {
	s := w.stateFor(tx)
	s.buf = append(s.buf, p...)
	return len(p), nil
}

// Printf formats into the transaction's buffer.
func (w *Writer) Printf(tx *stm.Tx, format string, args ...any) {
	s := w.stateFor(tx)
	s.buf = append(s.buf, fmt.Sprintf(format, args...)...)
}

// Flushes returns how many transactions have flushed output, for tests.
func (w *Writer) Flushes() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushes
}

// Commit flushes the transaction's buffer to the device atomically.
func (s *writerTx) Commit() {
	if len(s.buf) > 0 {
		s.w.mu.Lock()
		s.w.dst.Write(s.buf) //nolint:errcheck // sink errors are not recoverable at commit
		s.w.flushes++
		s.w.mu.Unlock()
	}
}

// Rollback discards the buffer, which goes with the aborted attempt.
func (s *writerTx) Rollback() {}

// BufferedBytes reports the B_W size for memory accounting (Table 8).
func (s *writerTx) BufferedBytes() int { return len(s.buf) }
