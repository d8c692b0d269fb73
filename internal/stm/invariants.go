package stm

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Invariant accessors for the schedule-exploration harness
// (internal/sched). They take the per-queue mutexes (one at a time), so
// they must only be called from outside the runtime's own critical
// sections — in harness terms, from a goroutine that is not currently
// inside an STM operation — and they assume a quiescent runtime for a
// consistent cross-queue view (which the harness's token serialization
// provides).

// CheckInvariants validates the runtime-global protocol invariants:
//
//   - every installed queue's lock word carries that queue's ID, and
//     vice versa every queue ID in a checked word resolves to a live
//     queue over the same address;
//   - lock words with queues are wellformed (W implies exactly one
//     holder; U implies an enqueued upgrader);
//   - the blocked table and the queue waiter lists agree;
//   - free queue IDs are disjoint from installed ones;
//   - no granted-but-still-enqueued waiter exists.
//
// It returns the first violation found, or nil.
func (rt *Runtime) CheckInvariants() error {
	d := rt.det
	var installed [MaxTxns + 1]bool
	for qid := 1; qid <= MaxTxns; qid++ {
		q := d.queues[qid].Load()
		if q == nil {
			continue
		}
		q.mu.Lock()
		err := func() error {
			if q.dead {
				return nil // uninstalled between the table load and the lock
			}
			installed[qid] = true
			if q.qid != qid {
				return fmt.Errorf("queue table slot %d holds queue with qid %d", qid, q.qid)
			}
			w := atomic.LoadUint64(q.addr)
			if err := wellformed(w); err != nil {
				return fmt.Errorf("queue %d lock word: %w", qid, err)
			}
			if got := wordQueueID(w); got != qid {
				return fmt.Errorf("queue %d installed but lock word names queue %d (%s)",
					qid, got, formatWord(w))
			}
			if wordHasUpgrader(w) && q.findUpgrader() == nil {
				return fmt.Errorf("queue %d: U flag set but no upgrader enqueued (%s)",
					qid, formatWord(w))
			}
			holders := wordHolders(w)
			for _, wt := range q.waiters {
				if wt.granted {
					return fmt.Errorf("queue %d: granted waiter txn %d still enqueued", qid, wt.tx.vid)
				}
				if wq := wt.q.Load(); wq != q {
					return fmt.Errorf("queue %d: waiter txn %d points at queue %d", qid, wt.tx.vid, wq.qid)
				}
				if wt.tx.slot < 0 {
					return fmt.Errorf("queue %d: waiter txn %d has no slot lease", qid, wt.tx.vid)
				}
				if d.blocked[wt.tx.slot].Load() != wt {
					return fmt.Errorf("queue %d: waiter txn %d (slot %d) missing from blocked table",
						qid, wt.tx.vid, wt.tx.slot)
				}
				if holders&wt.tx.mask != 0 && !wt.upgrader {
					return fmt.Errorf("queue %d: non-upgrader txn %d both holds and waits (%s)",
						qid, wt.tx.vid, formatWord(w))
				}
			}
			// Holder bits must belong to leased slots with live sections.
			for h := holders; h != 0; {
				b := h & (-h)
				h &^= b
				slot := bits.TrailingZeros64(b)
				if rt.trackSlots && rt.txBySlot[slot].Load() == nil {
					return fmt.Errorf("queue %d: holder bit for unleased slot %d (%s)",
						qid, slot, formatWord(w))
				}
			}
			return nil
		}()
		q.mu.Unlock()
		if err != nil {
			return err
		}
	}
	free := d.freeQIDs.Load()
	for qid := 1; qid <= MaxTxns; qid++ {
		if installed[qid] && free&(uint64(1)<<uint(qid)) != 0 {
			return fmt.Errorf("queue ID %d both free and installed", qid)
		}
	}
	for slot := 0; slot < MaxTxns; slot++ {
		wt := d.blocked[slot].Load()
		if wt == nil {
			continue
		}
		if wt.tx.slot != slot {
			return fmt.Errorf("blocked table slot %d holds txn %d leasing slot %d", slot, wt.tx.vid, wt.tx.slot)
		}
		q := wt.q.Load()
		q.mu.Lock()
		err := func() error {
			if d.blocked[slot].Load() != wt {
				return nil // resolved between the loads
			}
			if q.dead || d.queues[q.qid].Load() != q {
				return fmt.Errorf("blocked txn %d waits on uninstalled queue %d", wt.tx.vid, q.qid)
			}
			for _, qwt := range q.waiters {
				if qwt == wt {
					return nil
				}
			}
			return fmt.Errorf("blocked txn %d not in its queue %d", wt.tx.vid, q.qid)
		}()
		q.mu.Unlock()
		if err != nil {
			return err
		}
	}
	// Read-bias slot invariant: a live reader slot implies a live owner
	// transaction and a non-zero queue field (bias marker or installed
	// queue) in the word it names — the drain-pinning rule every write
	// acquisition path relies on (see bias.go).
	if rt.bias.everAny.Load() {
		for slot := 0; slot < MaxTxns; slot++ {
			for s := 0; s < biasStripes; s++ {
				addr := rt.bias.lines[slot].slots[s].Load()
				if addr == nil {
					continue
				}
				if rt.trackSlots && rt.txBySlot[slot].Load() == nil {
					return fmt.Errorf("bias slot (slot %d, stripe %d): live reader slot but lock-word slot unleased", slot, s)
				}
				if w := atomic.LoadUint64(addr); wordQueueID(w) == 0 {
					return fmt.Errorf("bias slot (slot %d, stripe %d): live slot but word has empty queue field (%s)",
						slot, s, formatWord(w))
				}
			}
		}
	}
	return nil
}

// CheckObjectLocks validates the lock words of one object: structural
// wellformedness, holder bits only for live transactions, and queue IDs
// only for queues installed over that exact word. Objects with no lock
// slab yet trivially pass.
func (rt *Runtime) CheckObjectLocks(o *Object) error {
	slab := o.locks.Load()
	if slab == nil || slab == unallocSlab {
		return nil
	}
	d := rt.det
	for i := range slab.words {
		addr := &slab.words[i]
		w := atomic.LoadUint64(addr)
		if err := wellformed(w); err != nil {
			return fmt.Errorf("%s lock %d: %w", o.class.name, i, err)
		}
		for h := wordHolders(w); h != 0; {
			b := h & (-h)
			h &^= b
			slot := bits.TrailingZeros64(b)
			if rt.trackSlots && rt.txBySlot[slot].Load() == nil {
				return fmt.Errorf("%s lock %d: holder bit for unleased slot %d (%s)",
					o.class.name, i, slot, formatWord(w))
			}
		}
		if wordIsBiased(w) {
			// Bias marker, not a queue ID: nothing to resolve in the queue
			// table (wellformed already rejected W/U alongside the marker).
			continue
		}
		if qid := wordQueueID(w); qid != 0 {
			q := d.queues[qid].Load()
			if q == nil {
				return fmt.Errorf("%s lock %d: names uninstalled queue %d (%s)",
					o.class.name, i, qid, formatWord(w))
			}
			if q.addr != addr {
				return fmt.Errorf("%s lock %d: queue %d installed over a different word",
					o.class.name, i, qid)
			}
		}
	}
	return nil
}

// BlockedTxns returns the virtual IDs of transactions currently
// enqueued on a lock, for harness stall diagnosis. The blocked table is
// slot-keyed (every blocked section holds a slot lease), so this scans
// the slots and reports the leasing transactions' virtual IDs.
func (rt *Runtime) BlockedTxns() []int {
	d := rt.det
	var ids []int
	for slot := 0; slot < MaxTxns; slot++ {
		if wt := d.blocked[slot].Load(); wt != nil {
			ids = append(ids, wt.tx.vid)
		}
	}
	return ids
}

// InjectSpuriousWake delivers a wake-up signal to the parked waiter of
// the transaction with virtual ID txID without granting or aborting it
// (fault injection): the waiter re-checks its flags, finds nothing, and
// re-parks. Reports whether a parked waiter existed.
func (rt *Runtime) InjectSpuriousWake(txID int) bool {
	d := rt.det
	for slot := 0; slot < MaxTxns; slot++ {
		wt := d.blocked[slot].Load()
		if wt == nil || wt.tx.vid != txID {
			continue
		}
		q := wt.q.Load()
		q.mu.Lock()
		ok := d.blocked[slot].Load() == wt && !wt.granted && !wt.aborted
		if ok {
			wt.signal()
		}
		q.mu.Unlock()
		return ok
	}
	return false
}

// RedeliverDelayedGrants re-runs the grant scans suppressed by the
// DelayGrant fault (see Hooks) and returns the number of queues
// re-scanned. The redelivered scans bypass further DelayGrant
// injection so the fault cannot starve a queue forever.
func (rt *Runtime) RedeliverDelayedGrants() int {
	d := rt.det
	d.redelivering.Store(true)
	n := 0
	for qid := 1; qid <= MaxTxns; qid++ {
		q := d.queues[qid].Load()
		if q == nil {
			continue
		}
		q.mu.Lock()
		if !q.dead && q.delayed {
			q.delayed = false
			n++
			d.grantScanLocked(q)
		}
		q.mu.Unlock()
	}
	d.redelivering.Store(false)
	return n
}

// DelayedGrantsPending reports whether any suppressed grant scan has not
// been redelivered yet.
func (rt *Runtime) DelayedGrantsPending() bool {
	d := rt.det
	for qid := 1; qid <= MaxTxns; qid++ {
		q := d.queues[qid].Load()
		if q == nil {
			continue
		}
		q.mu.Lock()
		pending := !q.dead && q.delayed
		q.mu.Unlock()
		if pending {
			return true
		}
	}
	return false
}
