// Package core implements the synchronized-by-default (SBD) programming
// model of Bättig & Gross (PPoPP 2017) — the paper's primary
// contribution — on top of the special-purpose STM in internal/stm.
//
// In the SBD model every instruction of every thread executes inside an
// atomic section with transactional semantics, including instructions
// with external side effects. By default a thread is a single atomic
// section; the only way to increase concurrency is to end the current
// section explicitly with a split, which releases all resources the
// section acquired and makes its modifications and external effects
// visible.
//
// # Mapping to Go
//
// The paper's Java prototype rebuilds the stack from the undo log when
// an atomic section aborts (it is chosen as a deadlock victim) and
// re-executes the section from its beginning. Go offers no way to
// rebuild a goroutine stack, so this package uses a replay log instead:
//
//   - A Thread always has one active atomic section (one stm.Tx).
//   - Thread.Atomic(f) runs the closure f inside the current section and
//     records it in the section's replay log.
//   - Thread.Split ends the current section (commit) and begins a new
//     one, clearing the replay log.
//   - When the section aborts, the runtime rolls the transaction back
//     and re-executes the recorded closures in order.
//
// This is behaviourally equivalent to the paper's stack rebuild under
// one documented restriction: data that flows from one Atomic closure to
// a later one in the same section must flow through variables captured
// by both closures (so a replay of the earlier closure refreshes what
// the later one reads):
//
//	var n int64
//	th.Atomic(func(tx *stm.Tx) { n = tx.ReadInt(counter, fld) })
//	th.Atomic(func(tx *stm.Tx) { tx.WriteInt(counter, fld, n+1) })
//
// Control flow that decides which shared accesses happen should live
// inside a single closure.
//
// # The canSplit discipline
//
// The paper statically prevents unexpected splits with the canSplit and
// allowSplit modifiers (§2.2). In Go this discipline is structural:
// Split, Wait, and Join may only be called at thread level, never inside
// an Atomic closure (the runtime panics otherwise), so a function that
// can split must take the *Thread — visibly, in its signature — which is
// exactly the canSplit property; passing the thread to a callee is the
// allowSplit declaration. The static variants of these checks are
// modeled in internal/instrument, which analyzes programs in the paper's
// own terms.
//
// # Thread operations (§3.5)
//
//   - Go defers the actual start of a new thread until the current
//     section ends.
//   - Join splits first, guaranteeing that the joined thread has started
//     and that the joiner's transaction ID is free while it waits.
//   - Cond signals are deferred until the signaling section commits;
//     Wait registers the waiter, then splits, then blocks.
//   - Thread-local memory (stm.Tx.NewLocal) skips locking but keeps an
//     undo log.
//
// # Contention management
//
// An aborted section replays at once. The transaction keeps its start
// ticket across the reset, so the replay queues behind the winner and
// ages until it is the oldest, which is never a victim; a duel loss has
// also boosted the site's promotion hint, so the replay usually
// write-locks up front instead of re-entering the same duel.
// Read-modify-write closures can additionally declare write intent up front with the stm.Tx ReadForWrite accessor
// variants (ReadIntForWrite, ReadWordForWrite, ...), which take the
// write lock on the first read and make the upgrade — and the duel —
// impossible; sites that are not annotated are promoted adaptively by
// the STM once their reads are observed to upgrade and duel.
package core
