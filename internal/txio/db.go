package txio

import (
	"repro/internal/memdb"
	"repro/internal/stm"
)

// DBSession is the transactional wrapper for the database (the paper's
// JDBC integration, §5.3): since the database has transactions of its
// own, each STM transaction maps to one database transaction whose
// commit and rollback are driven by the STM transaction's end.
type DBSession struct {
	db *memdb.DB
}

type dbTx struct {
	s   *DBSession
	txn *memdb.Txn
}

func (d *dbTx) owner() any { return d.s }

// NewDBSession wraps db.
func NewDBSession(db *memdb.DB) *DBSession { return &DBSession{db: db} }

// DB returns the underlying engine (for setup and verification).
func (s *DBSession) DB() *memdb.DB { return s.db }

// Txn returns the database transaction bound to tx, beginning one on
// first use.
func (s *DBSession) Txn(tx *stm.Tx) *memdb.Txn {
	return stateOn(tx, s, func() *dbTx { return &dbTx{s: s, txn: s.db.Begin()} }).txn
}

// Commit commits the bound database transaction.
func (d *dbTx) Commit() {
	d.txn.Commit() //nolint:errcheck // ErrEnded only; the Tx ends each attempt's state once
}

// Rollback rolls the bound database transaction back.
func (d *dbTx) Rollback() {
	d.txn.Rollback() //nolint:errcheck // ErrEnded only, as for Commit
}
