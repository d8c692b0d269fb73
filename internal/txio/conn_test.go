package txio

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/stm"
)

// chunkedStream serves data in chunks of the sizes it cycles through; it
// appends writes to out. With once set, a second Read panics.
type chunkedStream struct {
	data   []byte
	off    int
	chunks []byte
	reads  int
	once   bool
	out    []byte
}

func (s *chunkedStream) Read(p []byte) (int, error) {
	if s.once && s.reads > 0 {
		panic("chunkedStream: read twice")
	}
	if s.off == len(s.data) {
		return 0, io.EOF
	}
	n := len(s.data) - s.off
	if len(s.chunks) > 0 {
		n = min(n, int(s.chunks[s.reads%len(s.chunks)])%64+1)
	}
	s.reads++
	n = copy(p, s.data[s.off:s.off+n])
	s.off += n
	return n, nil
}

func (s *chunkedStream) Write(p []byte) (int, error) {
	s.out = append(s.out, p...)
	return len(p), nil
}

// TestConnReadsAhead: two request lines arriving in one chunk cost one
// raw Read; the second section is served from the input buffer.
func TestConnReadsAhead(t *testing.T) {
	rt := stm.NewRuntime()
	c := NewConn(&chunkedStream{data: []byte("GET /a\nGET /b\n"), once: true})
	for i, want := range []string{"GET /a", "GET /b"} {
		if got := c.HasReplay(); got != (i > 0) {
			t.Fatalf("before section %d: HasReplay = %v", i, got)
		}
		tx := rt.Begin()
		if line, err := c.ReadLine(tx); err != nil || line != want {
			t.Fatalf("ReadLine = %q, %v; want %q", line, err, want)
		}
		tx.Commit()
	}
	if c.HasReplay() {
		t.Fatal("HasReplay true with every byte consumed")
	}
}

// TestConnReadLineBufferedAllocsOnlyTheLine: once the transaction's state
// exists, a buffered line costs the returned string and nothing else.
func TestConnReadLineBufferedAllocsOnlyTheLine(t *testing.T) {
	rt := stm.NewRuntime()
	c := NewConn(&chunkedStream{data: []byte(strings.Repeat("ab\n", 200))})
	tx := rt.Begin()
	defer tx.Commit()
	c.ReadLine(tx) //nolint:errcheck // fills the buffer with every line
	allocs := testing.AllocsPerRun(100, func() {
		if line, err := c.ReadLine(tx); err != nil || line != "ab" {
			t.Fatalf("ReadLine = %q, %v", line, err)
		}
	})
	if allocs > 1 {
		t.Fatalf("buffered ReadLine allocated %.1f times, want at most the line", allocs)
	}
}

// TestConnReadLineBound: a line of exactly maxLineLen bytes reads whole;
// a longer one without a newline ends in ErrLineTooLong long before the
// peer runs out of bytes to send.
func TestConnReadLineBound(t *testing.T) {
	rt := stm.NewRuntime()
	full := strings.Repeat("x", maxLineLen)
	raw := &chunkedStream{data: []byte(full + "\n" + strings.Repeat("y", 4*maxLineLen))}
	c := NewConn(raw)
	tx := rt.Begin()
	defer tx.Commit()
	if line, err := c.ReadLine(tx); err != nil || line != full {
		t.Fatalf("ReadLine of a %d-byte line = %d bytes, %v", maxLineLen, len(line), err)
	}
	if line, err := c.ReadLine(tx); !errors.Is(err, ErrLineTooLong) || line != "" {
		t.Fatalf("ReadLine of an unterminated line = %d bytes, %v; want ErrLineTooLong", len(line), err)
	}
	if unterminated := raw.off - (maxLineLen + 1); unterminated >= 3*maxLineLen {
		t.Fatalf("read %d bytes of the unterminated line before giving up", unterminated)
	}
}

// TestConnSecondReaderPanics: one Conn has one reader at a time. Writes
// by another transaction stay allowed, and once the reader commits the
// next one may read.
func TestConnSecondReaderPanics(t *testing.T) {
	rt := stm.NewRuntime()
	c := NewConn(&chunkedStream{data: []byte("one\ntwo\n")})
	tx1, tx2 := rt.Begin(), rt.Begin()
	c.ReadLine(tx1)             //nolint:errcheck
	c.WriteString(tx2, "reply") //nolint:errcheck
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second live reader did not panic")
			}
		}()
		c.ReadLine(tx2) //nolint:errcheck
	}()
	tx1.Commit()
	if line, err := c.ReadLine(tx2); err != nil || line != "two" {
		t.Fatalf("reader after commit: %q, %v", line, err)
	}
	tx2.Commit()
}

// FuzzConnReplay checks Conn against a model that knows only the input
// and the committed offset into it: every read returns the model's next
// bytes, a Reset re-serves exactly what the attempt read (from the
// buffer, without touching the raw stream), and HasReplay is true exactly
// when input is buffered that no commit has consumed. Every attempt
// echoes what it reads, so the device output must always be the
// committed input: an aborted attempt's bytes never leak out of the
// write buffer the next transaction reuses. Script bytes pick the
// operation (low two bits) and Read's size (the rest).
func FuzzConnReplay(f *testing.F) {
	f.Add([]byte("GET /a\nGET /b\n"), []byte{63}, []byte{0, 2, 0, 3, 0, 2})
	f.Add([]byte("a\nbb\nccc\n"), []byte{0, 1}, []byte{0, 0, 3, 5, 0, 2, 0, 0})
	f.Add([]byte("line one\nline two\nline three\n"), []byte{2, 7, 0}, []byte{9, 0, 3, 1, 2, 4, 0, 0, 3, 0, 2})
	f.Add([]byte("x\n"), []byte{}, []byte{0, 0, 1, 3, 0, 2})
	f.Fuzz(func(t *testing.T, input, chunks, script []byte) {
		// Each Reset re-reads the attempt, so cost grows with input times
		// script: cap both to keep every execution short.
		input, script = input[:min(len(input), 4096)], script[:min(len(script), 512)]
		if len(input) > 0 && input[len(input)-1] != '\n' {
			input = append(input, '\n')
		}
		raw := &chunkedStream{data: input, chunks: chunks}
		c := NewConn(raw)
		rt := stm.NewRuntime()
		tx := rt.Begin()
		committed, pos := 0, 0
		for i, op := range script {
			switch op % 4 {
			case 0: // ReadLine
				line, err := c.ReadLine(tx)
				if pos == len(input) {
					if err != io.EOF || line != "" {
						t.Fatalf("op %d: ReadLine at end = %q, %v", i, line, err)
					}
					break
				}
				end := pos + bytes.IndexByte(input[pos:], '\n')
				if err != nil || line != string(input[pos:end]) {
					t.Fatalf("op %d: ReadLine = %q, %v; want %q", i, line, err, input[pos:end])
				}
				c.WriteString(tx, line+"\n") //nolint:errcheck
				pos = end + 1
			case 1: // Read(n)
				p := make([]byte, int(op/4)+1)
				n, err := c.Read(tx, p)
				if pos == len(input) {
					if n != 0 || err != io.EOF {
						t.Fatalf("op %d: Read at end = %d, %v", i, n, err)
					}
					break
				}
				if err != nil || n == 0 || !bytes.Equal(p[:n], input[pos:pos+n]) {
					t.Fatalf("op %d: Read = %q, %v; want a prefix of %q", i, p[:n], err, input[pos:])
				}
				c.Write(tx, p[:n]) //nolint:errcheck
				pos += n
			case 2: // Commit
				tx.Commit()
				tx = rt.Begin()
				committed = pos
			case 3: // Reset, then re-read the attempt's bytes
				tx.Reset()
				rawOff := raw.off
				again := make([]byte, pos-committed)
				if err := c.ReadFull(tx, again); err != nil || !bytes.Equal(again, input[committed:pos]) {
					t.Fatalf("op %d: replay = %q, %v; want %q", i, again, err, input[committed:pos])
				}
				if raw.off != rawOff {
					t.Fatalf("op %d: replay read the raw stream", i)
				}
				c.Write(tx, again) //nolint:errcheck
			}
			if !bytes.Equal(raw.out, input[:committed]) {
				t.Fatalf("op %d: device output %q; want the committed input %q", i, raw.out, input[:committed])
			}
			if got, want := c.HasReplay(), raw.off > committed; got != want {
				t.Fatalf("op %d: HasReplay = %v with %d bytes delivered, %d committed", i, got, raw.off, committed)
			}
		}
		tx.Commit()
	})
}
