// Package txio implements the transactional wrappers of paper §3.4/§4.4:
// in the SBD approach no code runs outside an atomic section, including
// operations with external side effects, so every irreversible operation
// goes through a hand-written wrapper that buffers it until the section
// ends.
//
// Each wrapper follows the paper's four-step scheme:
//
//  1. An adapter with the device's interface forwards each call.
//  2. A buffer saves state before (or instead of) a modification.
//  3. Synchronization around queries/modifications ensures atomicity and
//     isolation; irreversible modifications are deferred to commit.
//  4. Commit applies deferred operations and clears the buffer; rollback
//     undoes or discards using the buffer.
//
// Concretely:
//
//   - Writer defers all output in a per-transaction buffer B_W and flushes
//     it atomically at commit — this is also the "aggregate output to
//     console per transaction" modification of paper Table 4.
//   - Conn wraps a bidirectional stream: writes are deferred (B_W), and
//     reads advance a cursor over one input buffer that refills from the
//     device in chunks. Commit trims what was consumed; an abort rewinds
//     the cursor, so the unconsumed tail of the buffer is the paper's
//     replay buffer B_R and the retry re-reads exactly the aborted
//     attempt's bytes. One transaction at a time may read a Conn. B_W
//     is reused: it returns to its Conn only after the commit's device
//     write has returned, or after a rollback, and the next transaction
//     on the Conn takes it.
//   - FileSystem wraps memfs: Open snapshots the file (reads are
//     trivially repeatable), Create buffers the new content and writes it
//     at commit.
//
// A wrapper's per-transaction state is a Resource registered on the
// stm.Tx, found again through Tx.Resources: no wrapper keeps a table of
// transactions.
//
// Two consequences for programs, noted in the paper, hold here too: an
// observer sees output only after the producing section ends (so even
// single-threaded programs need splits to make output appear), and all
// irreversible operations must use these wrappers.
package txio
