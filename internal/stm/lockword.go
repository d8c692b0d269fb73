package stm

import (
	"fmt"
	"sync/atomic"
)

// The 64-bit lock word (paper Figure 4b). Bits, LSB first:
//
//	[0..55]  slot bit set: bit i is set while the section leasing
//	         lock-word slot i holds this lock (as reader, or as the
//	         writer when W is set)
//	[56]     W flag: a write lock is in place (the bit set then contains
//	         exactly the writer's bit)
//	[57]     reserved, always zero (the paper's U flag, which marks an
//	         enqueued upgrader; here the upgrader is marked on its
//	         waiter at the front of the queue, and a dueling upgrade is
//	         a two-member cycle the detector resolves)
//	[58..63] queue ID: 0 means no wait queue; 1..MaxTxns index the global
//	         queue table; biasQID (63) marks a read-biased word; the
//	         remaining values 57..62 are invalid and rejected by
//	         wellformed
//
// The bits name slots, not transactions: a transaction's identity is
// its unbounded start ticket (Tx.ID), and a slot is leased only while a
// section holds or acquires locks (runtime.go). The slot pool provides
// the happens-before edge between consecutive lessees of a slot, so a
// bit never means two different sections at once.
const (
	// MaxTxns is the number of lock-word slots: the maximum number of
	// sections that can hold locks simultaneously (not the number of live
	// transactions — Begin never blocks on it). The bit set occupies 56
	// of the lock word's 64 bits: the largest CAS the implementation
	// platform supports is 64 bits, and 8 bits are needed for W, the
	// reserved bit, and the queue ID.
	MaxTxns = 56

	bitsetMask  uint64 = (1 << 56) - 1
	wFlag       uint64 = 1 << 56
	reservedBit uint64 = 1 << 57
	queueShift         = 58
	queueBits   uint64 = 63 << queueShift

	// biasQID is a sentinel value of the queue-ID field marking a
	// read-biased word (bias.go). Valid queue IDs are 1..MaxTxns = 56, so
	// the values 57..63 of the 6-bit field are free; using the top one as
	// a marker keeps the full 56-transaction concurrency (the alternative
	// encoding, a reserved TID bit, would cap MaxTxns at 55). A biased
	// word may carry reader holder bits (readers that fell back to the
	// shared CAS) and even the W flag: a production writer may write
	// through the bias — CAS W in alongside the marker, wait out the
	// already-published reader slots, and leave the marker standing
	// (bias.go).
	biasQID = 63
)

// txMask returns the bit-set mask for lock-word slot slot.
func txMask(slot int) uint64 { return 1 << uint(slot) }

// wordQueueID extracts the queue ID from a lock word (0 = no queue).
func wordQueueID(w uint64) int { return int(w >> queueShift) }

// wordWithQueue returns w with its queue ID replaced by qid.
func wordWithQueue(w uint64, qid int) uint64 {
	return (w &^ queueBits) | uint64(qid)<<queueShift
}

// wordIsBiased reports whether the queue-ID field holds the read-bias
// marker rather than a real queue (or none).
func wordIsBiased(w uint64) bool { return wordQueueID(w) == biasQID }

// wordRealQueue returns the installed queue ID of a lock word, treating
// both "no queue" and the bias marker as 0. Use this wherever the queue
// ID indexes the detector's queue table.
func wordRealQueue(w uint64) int {
	if qid := wordQueueID(w); qid != biasQID {
		return qid
	}
	return 0
}

// wordHolders returns the transaction bit set of a lock word.
func wordHolders(w uint64) uint64 { return w & bitsetMask }

// wordIsWrite reports whether the lock word encodes a write lock.
func wordIsWrite(w uint64) bool { return w&wFlag != 0 }

// casw is the hardware CAS on a lock word. Runtime code goes through
// Runtime.casWord (hooks.go), its only caller outside tests, so a
// schedule-exploration harness can inject failures.
func casw(addr *uint64, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(addr, old, new)
}

// wellformed validates the static structure of a lock word: a write
// lock has exactly one holder, and flags never appear without the
// state that justifies them. Queue-related conditions need the
// detector and are checked in invariants.go.
func wellformed(w uint64) error {
	holders := wordHolders(w)
	if wordIsWrite(w) {
		if holders == 0 || holders&(holders-1) != 0 {
			return fmt.Errorf("stm: W flag with holders=%014x (want exactly one)", holders)
		}
	}
	if qid := wordQueueID(w); qid > MaxTxns && qid != biasQID {
		// Valid queue IDs are 1..MaxTxns plus the bias marker; 57..62
		// index nothing and must never appear in a word.
		return fmt.Errorf("stm: invalid queue ID %d (%s)", qid, formatWord(w))
	}
	if w&reservedBit != 0 {
		return fmt.Errorf("stm: reserved bit 57 set (%s)", formatWord(w))
	}
	return nil
}

// formatWord renders a lock word for debugging and tests.
func formatWord(w uint64) string {
	return fmt.Sprintf("holders=%014x W=%t q=%d", wordHolders(w), wordIsWrite(w), wordQueueID(w))
}
