package memdb

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"testing"
)

// FuzzMemdb runs a script of two interleaved transactions against one
// table and checks every result against a map model of the package's
// rules: first-updater-wins row ownership, read committed, and no write
// after a stale read. Each script byte is one operation: bit 0 picks the
// transaction, bits 1–3 the operation (Get, Insert, Update, Delete,
// Commit, Rollback, Scan; 7 wraps to Get), bits 4–5 the key. Keys 0 and
// 1 start committed, 2 and 3 absent. A transaction that ended is
// replaced by a fresh one at its next operation. Scan must return the
// acting transaction's own inserts, updates and deletes over everyone
// else's committed rows, in key order, so a cached key order that
// missed a key arriving or leaving fails the script.
func FuzzMemdb(f *testing.F) {
	op := func(txn, op, key int) byte { return byte(txn | op<<1 | key<<4) }
	const get, insert, update, del, commit, rollback, scan = 0, 1, 2, 3, 4, 5, 6
	f.Add([]byte{})
	// A write after a stale read conflicts.
	f.Add([]byte{op(0, get, 0), op(1, update, 0), op(1, commit, 0), op(0, update, 0), op(0, commit, 0)})
	// ... also when the row was deleted and re-inserted in between.
	f.Add([]byte{op(0, get, 1), op(1, del, 1), op(1, commit, 0), op(1, insert, 1), op(1, commit, 0), op(0, del, 1)})
	// First updater wins; the loser rolls back.
	f.Add([]byte{op(0, update, 1), op(1, update, 1), op(1, rollback, 0), op(1, get, 1), op(0, commit, 0), op(1, get, 1)})
	// An uncommitted insert is invisible, owned, and can be deleted and
	// revived by its owner.
	f.Add([]byte{op(0, insert, 2), op(1, get, 2), op(1, insert, 2), op(1, update, 2), op(0, del, 2),
		op(0, insert, 2), op(0, get, 2), op(0, commit, 0), op(1, get, 2), op(1, insert, 3), op(1, rollback, 0)})
	// Scans before and after an insert that rolls back, a committed
	// delete, and a delete and re-insert in one transaction.
	f.Add([]byte{op(1, scan, 0), op(0, insert, 2), op(0, scan, 0), op(1, scan, 0), op(0, rollback, 0), op(1, scan, 0)})
	f.Add([]byte{op(0, scan, 0), op(0, del, 1), op(0, scan, 0), op(0, commit, 0), op(1, scan, 0)})
	f.Add([]byte{op(0, insert, 3), op(0, commit, 0), op(1, scan, 0), op(1, del, 3), op(1, insert, 3),
		op(1, scan, 0), op(0, scan, 0), op(1, commit, 0), op(0, scan, 0)})
	f.Fuzz(func(t *testing.T, script []byte) {
		db := New()
		tbl, _ := db.CreateTable("t")
		m := newModel()
		setup := db.Begin()
		for k := int64(0); k < 2; k++ {
			if err := setup.Insert(tbl, k, []string{"init"}); err != nil {
				t.Fatal(err)
			}
			m.committed[k] = "init"
		}
		setup.Commit()

		var txns [2]*Txn
		for step, b := range script {
			i, key := int(b&1), int64(b>>4&3)
			if txns[i] == nil {
				txns[i] = db.Begin()
				m.txns[i] = &modelTxn{writes: map[int64]modelWrite{}, marks: map[int64]int{}}
			}
			tx, val := txns[i], strconv.Itoa(step)
			var got result
			var name string
			switch int(b>>1&7) % 7 {
			case get:
				name = "Get"
				vals, err := tx.Get(tbl, key)
				got = result{err: err}
				if err == nil {
					got.val = vals[0]
				}
			case insert:
				name, got = "Insert", result{err: tx.Insert(tbl, key, []string{val})}
			case update:
				name, got = "Update", result{err: tx.Update(tbl, key, []string{val})}
			case del:
				name, got = "Delete", result{err: tx.Delete(tbl, key)}
			case commit:
				name, got, key = "Commit", result{err: tx.Commit()}, -1
				txns[i] = nil
			case rollback:
				name, got, key = "Rollback", result{err: tx.Rollback()}, -1
				txns[i] = nil
			case scan:
				name, key = "Scan", -1
				got = result{val: scanRows(tx, tbl)}
			}
			if want := m.apply(i, name, key, val); got != want {
				t.Fatalf("step %d: txn %d %s(%d) = (%q, %v), model says (%q, %v)",
					step, i, name, key, got.val, got.err, want.val, want.err)
			}
		}
		for _, tx := range txns {
			if tx != nil {
				tx.Rollback()
			}
		}
		if got, want := scanRows(db.Begin(), tbl), m.rows(nil); got != want {
			t.Fatalf("committed rows %s, model says %s", got, want)
		}
	})
}

// scanRows renders tx's scan of tbl as "[key=val ...]".
func scanRows(tx *Txn, tbl *Table) string {
	var rows []string
	tx.Scan(tbl, func(k int64, v []string) bool {
		rows = append(rows, fmt.Sprintf("%d=%s", k, v[0]))
		return true
	})
	return fmt.Sprint(rows)
}

type result struct {
	val string
	err error
}

type modelWrite struct {
	val     string
	deleted bool
}

// modelTxn is one open transaction: the rows it owns, and the stamp of
// each committed row it read, as of its first read.
type modelTxn struct {
	writes map[int64]modelWrite
	marks  map[int64]int
}

// model is the committed table plus, per key, a stamp that every commit
// touching the key bumps: a read is stale when its key's stamp moved.
type model struct {
	committed map[int64]string
	stamp     map[int64]int
	txns      [2]*modelTxn
}

func newModel() *model {
	return &model{committed: map[int64]string{}, stamp: map[int64]int{}}
}

func (m *model) apply(i int, name string, key int64, val string) result {
	me, other := m.txns[i], m.txns[1-i]
	mine, owned := me.writes[key]
	otherOwns := false
	if other != nil {
		_, otherOwns = other.writes[key]
	}
	committed, exists := m.committed[key]
	switch name {
	case "Get":
		if owned {
			if mine.deleted {
				return result{err: ErrNotFound}
			}
			return result{val: mine.val}
		}
		if !exists {
			return result{err: ErrNotFound}
		}
		if _, read := me.marks[key]; !read {
			me.marks[key] = m.stamp[key]
		}
		return result{val: committed}
	case "Insert":
		switch {
		case owned && mine.deleted:
		case owned:
			return result{err: ErrDuplicate}
		case otherOwns:
			return result{err: ErrConflict}
		case exists:
			return result{err: ErrDuplicate}
		}
		me.writes[key] = modelWrite{val: val}
		return result{}
	case "Update", "Delete":
		switch {
		case owned && mine.deleted:
			return result{err: ErrNotFound}
		case owned:
		case !exists:
			return result{err: ErrNotFound}
		case otherOwns:
			return result{err: ErrConflict}
		default:
			if stamp, read := me.marks[key]; read && stamp != m.stamp[key] {
				return result{err: ErrConflict}
			}
		}
		me.writes[key] = modelWrite{val: val, deleted: name == "Delete"}
		return result{}
	case "Scan":
		return result{val: m.rows(me)}
	case "Commit":
		for k, w := range me.writes {
			if w.deleted {
				delete(m.committed, k)
			} else {
				m.committed[k] = w.val
			}
			m.stamp[k]++
		}
	}
	m.txns[i] = nil
	return result{}
}

// rows renders the table as tx sees it, its own writes over the
// committed rows, in the form scanRows gives. A nil tx sees only
// committed rows.
func (m *model) rows(tx *modelTxn) string {
	view := maps.Clone(m.committed)
	if tx != nil {
		for k, w := range tx.writes {
			if w.deleted {
				delete(view, k)
			} else {
				view[k] = w.val
			}
		}
	}
	keys := make([]int64, 0, len(view))
	for k := range view {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	rows := make([]string, 0, len(keys))
	for _, k := range keys {
		rows = append(rows, fmt.Sprintf("%d=%s", k, view[k]))
	}
	return fmt.Sprint(rows)
}
