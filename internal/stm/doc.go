// Package stm implements the special-purpose software transactional memory
// system described in §3.2–§3.3 and §4.2 of Bättig & Gross,
// "Synchronized-by-Default Concurrency for Shared-Memory Systems"
// (PPoPP 2017).
//
// The STM deliberately provides only the minimal feature set the SBD
// approach requires:
//
//   - Pessimistic concurrency control with eager conflict detection and
//     visible readers: every synchronized memory location carries a
//     read/write lock that a transaction acquires before the access.
//   - Field- and array-element-level lock granularity to avoid false
//     sharing between fields of one instance.
//   - Eager version management: writes go in place, old values go to an
//     undo log that is applied only on abort.
//   - A 64-bit lock word per location holding a 56-bit transaction bit
//     set, a write flag W, a reserved bit (the paper's upgrader bit U),
//     and a 6-bit queue ID, all manipulated with a single
//     compare-and-swap.
//   - Fair FIFO wait queues per contended lock; upgrading readers enqueue
//     at the front, so two dueling write-upgrades form a two-member
//     cycle the deadlock detector resolves.
//   - Deterministic deadlock resolution using a blocking variant of the
//     dreadlocks digest algorithm adapted to read/write locks; the
//     youngest transaction in a cycle is always the victim, so the oldest
//     transaction — and therefore the program — always makes progress.
//   - At most MaxTxns (56) concurrently active transactions; Begin blocks
//     until a transaction ID is free.
//
// Memory model. Because Go lacks the managed object model the paper's
// bytecode transformer relies on, the package provides one: instances are
// *Object values described by a *Class (a field table with per-field kind
// and finality), and arrays are Objects with one lock per element. The
// lock slab of an instance is allocated lazily: nil while the instance is
// new in its allocating transaction, the shared UNALLOC sentinel after
// that transaction committed, and a real slab only once a lock is first
// needed (paper Figure 4/5).
//
// Aborts surface as a panic holding *Aborted; the SBD layer
// (internal/core) recovers, calls Tx.Reset, and replays the section.
package stm
