package txio

import (
	"io"

	"repro/internal/memfs"
	"repro/internal/stm"
)

// FileSystem is the transactional facade over memfs. Reads are
// repeatable because Open snapshots the (immutable) file content, so no
// replay buffer is needed; writes accumulate in a per-handle buffer and
// reach the file system only at commit.
type FileSystem struct {
	fs *memfs.FS
}

// NewFileSystem wraps fs.
func NewFileSystem(fs *memfs.FS) *FileSystem { return &FileSystem{fs: fs} }

// Raw returns the underlying memfs, for setup and verification code.
func (t *FileSystem) Raw() *memfs.FS { return t.fs }

// File is a transactional file handle, valid within one transaction (and
// its replays — a replayed section re-opens its files, since the replay
// re-runs the opening closure).
type File struct {
	fs      *FileSystem
	name    string
	data    []byte // snapshot for readers
	pos     int
	wbuf    []byte // B_W for writers
	writing bool
}

// Open returns a read handle on name, snapshotting its current content.
func (t *FileSystem) Open(tx *stm.Tx, name string) (*File, error) {
	data, err := t.fs.ReadFile(name)
	if err != nil {
		return nil, err
	}
	return &File{fs: t, name: name, data: data}, nil
}

// Create returns a write handle on name. The content written through the
// handle replaces the file atomically when the transaction commits; an
// abort leaves the file system untouched.
func (t *FileSystem) Create(tx *stm.Tx, name string) *File {
	f := &File{fs: t, name: name, writing: true}
	tx.Register(f)
	return f
}

// Name returns the file's name.
func (f *File) Name() string { return f.name }

// Read reads from the snapshot.
func (f *File) Read(p []byte) (int, error) {
	if f.writing {
		panic("txio: Read on a write handle")
	}
	if f.pos >= len(f.data) {
		return 0, io.EOF
	}
	n := copy(p, f.data[f.pos:])
	f.pos += n
	return n, nil
}

// ReadAll returns the remaining snapshot content.
func (f *File) ReadAll() []byte {
	rest := f.data[f.pos:]
	f.pos = len(f.data)
	return rest
}

// ReadAt returns n bytes at offset off of the snapshot without moving
// the read position (the random-access read an index reader performs).
func (f *File) ReadAt(off, n int) ([]byte, error) {
	if f.writing {
		panic("txio: ReadAt on a write handle")
	}
	if off < 0 || n < 0 || off+n > len(f.data) {
		return nil, io.ErrUnexpectedEOF
	}
	return f.data[off : off+n], nil
}

// Size returns the snapshot length.
func (f *File) Size() int { return len(f.data) }

// Write buffers p (write handles only).
func (f *File) Write(p []byte) (int, error) {
	if !f.writing {
		panic("txio: Write on a read handle")
	}
	f.wbuf = append(f.wbuf, p...)
	return len(p), nil
}

// WriteString buffers s.
func (f *File) WriteString(s string) (int, error) { return f.Write([]byte(s)) }

// Commit publishes the buffered content.
func (f *File) Commit() {
	if f.writing {
		f.fs.fs.WriteFile(f.name, f.wbuf)
		f.wbuf = nil
	}
}

// Rollback discards the buffered content.
func (f *File) Rollback() { f.wbuf = nil }

// BufferedBytes reports the B_W size (Table 8 accounting).
func (f *File) BufferedBytes() int { return len(f.wbuf) }
