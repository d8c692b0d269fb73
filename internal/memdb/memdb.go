// Package memdb is a small in-memory table store with its own ACID
// transactions. It stands in for the H2 database engine of the paper's
// evaluation: the H2 benchmark spends most of its time inside the
// database behind a JDBC interface, which the SBD prototype integrates
// through a transactional wrapper (paper §5.3) — the STM transaction's
// commit/rollback drives the database transaction's commit/rollback.
//
// Concurrency control is first-updater-wins row ownership: a transaction
// that updates, inserts, or deletes a row owns it until it ends; a
// second writer gets ErrConflict and is expected to roll back and retry.
// Readers always see the last committed version (read committed), and a
// transaction that read a row before another committed it cannot then
// write it: Get remembers the row's commit version, and Update or Delete
// of a row that has moved since returns ErrConflict (no lost updates).
package memdb

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Errors returned by transaction operations.
var (
	ErrConflict  = errors.New("memdb: row owned by another transaction")
	ErrNotFound  = errors.New("memdb: row not found")
	ErrDuplicate = errors.New("memdb: duplicate key")
	ErrNoTable   = errors.New("memdb: no such table")
	ErrEnded     = errors.New("memdb: transaction already ended")
)

type row struct {
	committed []string // nil = not visible to other transactions yet
	pending   []string // nil while unowned; tombstone encoded as deleted=true
	deleted   bool
	// version counts this row's commits. 32 bits keep the row in a
	// 64-byte allocation, and a stale read goes unnoticed only if the
	// row commits exactly 2^32 times between the read and the write.
	version uint32
	owner   *Txn
}

// Table is a map from int64 primary keys to string tuples.
type Table struct {
	name string
	rows map[int64]*row
	keys []int64 // rows' keys in ascending order; nil after a key came or went
}

// Stats counts database activity.
type Stats struct {
	Begins    atomic.Uint64
	Commits   atomic.Uint64
	Rollbacks atomic.Uint64
	Conflicts atomic.Uint64
	Reads     atomic.Uint64
	Writes    atomic.Uint64
}

// DB is the database engine.
type DB struct {
	mu     sync.Mutex
	tables map[string]*Table
	stats  Stats
}

// New creates an empty database.
func New() *DB { return &DB{tables: make(map[string]*Table)} }

// Stats returns the activity counters.
func (db *DB) Stats() *Stats { return &db.stats }

// CreateTable creates a table; creating an existing table is an error.
func (db *DB) CreateTable(name string) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("memdb: table %s exists", name)
	}
	t := &Table{name: name, rows: make(map[int64]*row)}
	db.tables[name] = t
	return t, nil
}

// Table looks a table up by name.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t := db.tables[name]
	if t == nil {
		return nil, ErrNoTable
	}
	return t, nil
}

// Txn is one database transaction.
type Txn struct {
	db    *DB
	owned []ownedRow
	read  []readMark
	ended bool
}

// readMark is the version of a row as this transaction first read it.
type readMark struct {
	t       *Table
	key     int64
	r       *row
	version uint32
}

// readOf returns this transaction's first read of (t, key), or nil.
func (tx *Txn) readOf(t *Table, key int64) *readMark {
	for i := range tx.read {
		if m := &tx.read[i]; m.t == t && m.key == key {
			return m
		}
	}
	return nil
}

// stale reports whether the row now at (t, key) is not the one this
// transaction read, or has committed since. Rows it never read are not
// stale. Caller holds db.mu.
func (tx *Txn) stale(t *Table, key int64, r *row) bool {
	m := tx.readOf(t, key)
	return m != nil && (m.r != r || m.version != r.version)
}

type ownedRow struct {
	t   *Table
	key int64
	r   *row
	// wasInsert: the row did not exist before this transaction.
	wasInsert bool
}

// Begin starts a transaction.
func (db *DB) Begin() *Txn {
	db.stats.Begins.Add(1)
	return &Txn{db: db}
}

func (tx *Txn) own(t *Table, key int64, r *row, wasInsert bool) {
	r.owner = tx
	tx.owned = append(tx.owned, ownedRow{t: t, key: key, r: r, wasInsert: wasInsert})
}

// Get returns the committed or own pending value of key.
func (tx *Txn) Get(t *Table, key int64) ([]string, error) {
	if tx.ended {
		return nil, ErrEnded
	}
	tx.db.stats.Reads.Add(1)
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	r := t.rows[key]
	if r == nil {
		return nil, ErrNotFound
	}
	if r.owner == tx {
		if r.deleted {
			return nil, ErrNotFound
		}
		return r.pending, nil
	}
	if r.committed == nil {
		return nil, ErrNotFound // uncommitted insert of another transaction
	}
	if tx.readOf(t, key) == nil {
		tx.read = append(tx.read, readMark{t: t, key: key, r: r, version: r.version})
	}
	return r.committed, nil
}

// Insert adds a new row.
func (tx *Txn) Insert(t *Table, key int64, vals []string) error {
	if tx.ended {
		return ErrEnded
	}
	tx.db.stats.Writes.Add(1)
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	if r := t.rows[key]; r != nil {
		if r.owner == tx && r.deleted {
			r.deleted = false
			r.pending = cloneVals(vals)
			return nil
		}
		if r.owner != nil && r.owner != tx {
			tx.db.stats.Conflicts.Add(1)
			return ErrConflict
		}
		return ErrDuplicate
	}
	r := &row{pending: cloneVals(vals)}
	t.rows[key] = r
	t.keys = nil
	tx.own(t, key, r, true)
	return nil
}

// Update replaces the value of an existing row.
func (tx *Txn) Update(t *Table, key int64, vals []string) error {
	if tx.ended {
		return ErrEnded
	}
	tx.db.stats.Writes.Add(1)
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	r := t.rows[key]
	if r == nil || (r.owner != tx && r.committed == nil) {
		return ErrNotFound
	}
	if r.owner != tx && (r.owner != nil || tx.stale(t, key, r)) {
		tx.db.stats.Conflicts.Add(1)
		return ErrConflict
	}
	if r.owner == tx {
		if r.deleted {
			return ErrNotFound
		}
		r.pending = cloneVals(vals)
		return nil
	}
	r.pending = cloneVals(vals)
	tx.own(t, key, r, false)
	return nil
}

// Delete removes a row.
func (tx *Txn) Delete(t *Table, key int64) error {
	if tx.ended {
		return ErrEnded
	}
	tx.db.stats.Writes.Add(1)
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	r := t.rows[key]
	if r == nil || (r.owner != tx && r.committed == nil) {
		return ErrNotFound
	}
	if r.owner != tx && (r.owner != nil || tx.stale(t, key, r)) {
		tx.db.stats.Conflicts.Add(1)
		return ErrConflict
	}
	if r.owner == tx {
		if r.deleted {
			return ErrNotFound
		}
		r.deleted = true
		r.pending = nil
		return nil
	}
	r.deleted = true
	tx.own(t, key, r, false)
	return nil
}

// Scan calls fn for every visible row in ascending key order; fn
// returning false stops the scan. It sorts the table's keys only after
// a key was added or removed since the last scan.
func (tx *Txn) Scan(t *Table, fn func(key int64, vals []string) bool) error {
	if tx.ended {
		return ErrEnded
	}
	tx.db.stats.Reads.Add(1)
	tx.db.mu.Lock()
	if t.keys == nil {
		t.keys = make([]int64, 0, len(t.rows))
		for k := range t.rows {
			t.keys = append(t.keys, k)
		}
		slices.Sort(t.keys)
	}
	type kv struct {
		k int64
		v []string
	}
	visible := make([]kv, 0, len(t.keys))
	for _, k := range t.keys {
		r := t.rows[k]
		switch {
		case r.owner == tx:
			if !r.deleted {
				visible = append(visible, kv{k, r.pending})
			}
		case r.committed != nil:
			visible = append(visible, kv{k, r.committed})
		}
	}
	tx.db.mu.Unlock()
	for _, e := range visible {
		if !fn(e.k, e.v) {
			break
		}
	}
	return nil
}

// Commit publishes all pending changes and releases row ownership.
func (tx *Txn) Commit() error {
	if tx.ended {
		return ErrEnded
	}
	tx.ended = true
	tx.db.mu.Lock()
	for _, o := range tx.owned {
		if o.r.deleted {
			delete(o.t.rows, o.key)
			o.t.keys = nil
			continue
		}
		o.r.committed = o.r.pending
		o.r.pending = nil
		o.r.owner = nil
		o.r.version++
	}
	tx.db.mu.Unlock()
	tx.db.stats.Commits.Add(1)
	return nil
}

// Rollback discards all pending changes and releases row ownership.
func (tx *Txn) Rollback() error {
	if tx.ended {
		return ErrEnded
	}
	tx.ended = true
	tx.db.mu.Lock()
	for _, o := range tx.owned {
		if o.wasInsert {
			delete(o.t.rows, o.key)
			o.t.keys = nil
			continue
		}
		o.r.pending = nil
		o.r.deleted = false
		o.r.owner = nil
	}
	tx.db.mu.Unlock()
	tx.db.stats.Rollbacks.Add(1)
	return nil
}

func cloneVals(vals []string) []string {
	cp := make([]string, len(vals))
	copy(cp, vals)
	return cp
}
