package txio

import "repro/internal/stm"

// Foreign is the transactional wrapper for non-transactional library
// operations (paper Table 2, "Foreign code execution": use a wrapper to
// execute non-transactional library operations transactionally). Two
// integration styles cover the cases of §4.4 step 3:
//
//   - Defer: the operation is irreversible (or its reversal nontrivial),
//     so it runs only when the section commits.
//   - Do: the operation runs immediately because the section needs its
//     result, and a compensation is recorded that undoes its effect if
//     the section aborts.
//
// Deferred operations and compensations run in program order and reverse
// program order respectively, interleaved correctly with the other
// resources of the transaction.
type Foreign struct {
	_ byte // distinct instances need distinct addresses: they own distinct state
}

type foreignTx struct {
	f             *Foreign
	deferred      []func()
	compensations []func()
}

func (s *foreignTx) owner() any { return s.f }

// NewForeign creates a wrapper instance; one per foreign library (or per
// foreign object) keeps commit ordering local to that library.
func NewForeign() *Foreign { return &Foreign{} }

func (f *Foreign) stateFor(tx *stm.Tx) *foreignTx {
	return stateOn(tx, f, func() *foreignTx { return &foreignTx{f: f} })
}

// Defer schedules op to run when tx commits; aborted sections drop it.
func (f *Foreign) Defer(tx *stm.Tx, op func()) {
	s := f.stateFor(tx)
	s.deferred = append(s.deferred, op)
}

// Do runs op immediately and records compensate to undo its effect if
// the transaction aborts.
func (f *Foreign) Do(tx *stm.Tx, op func(), compensate func()) {
	s := f.stateFor(tx)
	op()
	s.compensations = append(s.compensations, compensate)
}

// Commit applies the deferred operations in order and forgets the
// compensations.
func (s *foreignTx) Commit() {
	for _, op := range s.deferred {
		op()
	}
}

// Rollback runs the compensations in reverse order and drops the
// deferred operations.
func (s *foreignTx) Rollback() {
	for i := len(s.compensations) - 1; i >= 0; i-- {
		s.compensations[i]()
	}
}
