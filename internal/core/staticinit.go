package core

import "repro/internal/stm"

// StaticInit is the guarded static initialization of paper §4.1: the
// transformer inserts a guard before each static access and constructor
// call that triggers the class's initialization if needed. Because the
// initializer runs inside the guarded transaction, a rollback reverts
// the initialization (the done flag and everything the initializer
// wrote are in the undo log) and a later guard re-executes it — exactly
// the paper's requirement.
type StaticInit struct {
	state *stm.Object
	init  func(tx *stm.Tx)
}

var staticInitClass = stm.NewClass("core.StaticInit",
	stm.FieldSpec{Name: "done", Kind: stm.KindWord},
)

var staticInitDone = staticInitClass.Field("done")

// NewStaticInit registers an initializer. init runs at most once per
// committed program history, inside the transaction whose guard
// triggered it.
func NewStaticInit(init func(tx *stm.Tx)) *StaticInit {
	return &StaticInit{state: stm.NewCommitted(staticInitClass), init: init}
}

// Ensure is the guard: it checks the done flag (a shared read lock on
// the common path) and runs the initializer under the flag's write lock
// when it is first reached. Two racing guards serialize on the upgrade;
// the loser aborts, and its replay reads the flag set.
func (s *StaticInit) Ensure(tx *stm.Tx) {
	if tx.ReadBool(s.state, staticInitDone) {
		return
	}
	// No re-check after the upgrade: the read lock is held from the read
	// through the upgrade grant, so no other transaction can have set
	// the flag in between, and a rival that read it too loses the duel.
	// (Were the read served invisibly, commit-time validation would
	// abort this attempt instead.)
	tx.WriteBool(s.state, staticInitDone, true)
	s.init(tx)
}

// Initialized reports whether the committed state has the initializer
// applied (for tests).
func (s *StaticInit) Initialized(tx *stm.Tx) bool {
	return tx.ReadBool(s.state, staticInitDone)
}
