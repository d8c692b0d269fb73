package stm

import (
	"sync/atomic"
	"unsafe"
)

// Adaptive read-bias: BRAVO-style distributed reader indication on top
// of the 64-bit lock word. Visible readers (paper §3.2) make every read
// CAS the shared per-field word, so readers of read-hot data serialize
// on the cache line even with zero logical conflicts. The bias layer
// removes that cost where it matters and nowhere else:
//
//   - Which sites are read-hot is the bias score of the site policy
//     word (site.go); this file is the mechanism the score switches on.
//   - While a site decodes to ModeBiased, a reader CASes the
//     bias marker (biasQID, lockword.go) into the word once, and from
//     then on readers skip the shared CAS entirely: visibility is a
//     plain store of the word's address into a cache-line-padded
//     per-transaction-ID reader slot, released in bulk at commit.
//   - A writer normally WRITES THROUGH the bias: one CAS sets the W
//     flag alongside the marker (grantWord preserves the queue-ID
//     field), which blocks new slot publishes — a reader verifies
//     marker-and-no-W after publishing — and the writer then waits out
//     the already-published cohort with bounded wait rounds
//     (biasWriteDrain). The marker survives the write, so a read-mostly
//     site pays no bias teardown/rebuild per write and readers park
//     exactly never in the common case. A schedule harness runs the
//     same write-through, each drain round a scheduling point.
//   - The queue protocol is the fallback, not the common case: a writer
//     whose drain budget runs out (a slot holder is itself blocked — a
//     potential deadlock the detector must see), or a dueling upgrader,
//     REVOKES the bias instead, replacing the marker with a real
//     installed queue in one CAS (detector.lockedQueue), scanning the 56
//     reader lines for live slots, and folding them into its dependency
//     digest — so dreadlocks detection and the youngest-victim rule stay
//     exact across biased readers — before parking until the slots drain.
//     While the queue is installed no new reader can publish (publish
//     requires the marker) or bypass it, so the wait is bounded by the
//     current reader cohort and FIFO fairness resumes: re-bias needs
//     the queue gone, which needs the writer served.
//
// Publish/write race: a reader publishes its slot with a plain store
// and then VERIFIES that the marker is still in the word with no W
// flag; a writer first CASes the word (write-through sets W, a revoker
// replaces the marker) and then scans the slots. Both run under Go's
// sequentially-consistent atomics, so in the total order either the
// reader's verify-load precedes the writer's CAS — and then the
// writer's later scan sees the already-published slot — or the verify
// sees W (or the marker gone) and the reader retracts before reading.
// A verified reader is therefore never missed.
//
// Mutual-exclusion invariant: a live reader slot for a word implies the
// word's queue field is non-zero (marker or real queue). Publishing
// requires the marker; the marker is only ever replaced by an installed
// queue; and a queue over a formerly-biased word is not uninstalled
// until its slots have drained (maybeUninstallLocked). Every write
// acquisition path demands either queue field == 0 (hence no live
// slots), an explicit drain check under the queue mutex, or — for a
// write-through, which holds W while slots may still be live — a drain
// wait before lockFor returns the word to the mutator (biasWriteDrain).

const (
	// biasStripes is the number of reader slots per transaction line.
	// Each biased word maps to one stripe by address hash; a transaction
	// holding biased reads on two words of the same stripe falls back to
	// the shared-CAS path for the second (reader holder bits coexist
	// with the marker, so the fallback is always available).
	biasStripes = 8

	// biasDrainSpinMax bounds how many reschedules a write-through
	// writer spends waiting for the reader slots to drain
	// (biasWriteDrain) before it falls back to the queue protocol. W
	// already blocks new publishes, so the cohort only shrinks; the
	// fallback is reserved for the rare case where a slot holder is
	// itself blocked and the writer needs deadlock-detector visibility.
	biasDrainSpinMax = 32

	// biasSpinRounds replaces the spin-before-enqueue budget at a biased
	// word that could not be entered right away (spinAcquire): such a
	// word is mid write-through or mid-revocation, windows one critical
	// section long, so the spinner stays on plain reschedules — timed
	// sleeps oversleep the window a hundredfold — and spins patiently,
	// because enqueueing installs a real queue and tears the bias down
	// for every reader behind it.
	biasSpinRounds = 16
)

// biasLine holds one transaction ID's reader slots, padded so two
// transactions' publishes never share a cache line — the whole point is
// that a biased read writes only memory private to its transaction ID.
type biasLine struct {
	slots [biasStripes]atomic.Pointer[uint64]
	_     [64]byte
}

// biasTable is the per-runtime read-bias mechanism state: the
// distributed reader-slot lines.
type biasTable struct {
	// everAny latches once any site has ever been biased; it gates the
	// 56-line slot scans on paths shared with never-biased workloads.
	everAny atomic.Bool
	lines   [MaxTxns]biasLine
}

// biasStripe maps a lock-word address to its reader-slot stripe.
func biasStripe(addr *uint64) int {
	p := uintptr(unsafe.Pointer(addr))
	p ^= p >> 9
	return int((p >> 3) & (biasStripes - 1))
}

// slot returns the reader slot of (transaction ID, word address).
func (t *biasTable) slot(id int, addr *uint64) *atomic.Pointer[uint64] {
	return &t.lines[id].slots[biasStripe(addr)]
}

// holders returns the TID bit set of transactions with a live reader
// slot published for addr. Callers fold it into write waiters'
// dependency digests; a slot mid-publish that will retract is a phantom
// edge, which the digest contract allows (supersets are fine, misses
// are not).
func (t *biasTable) holders(addr *uint64) uint64 {
	if !t.everAny.Load() {
		return 0
	}
	s := biasStripe(addr)
	var m uint64
	for id := 0; id < MaxTxns; id++ {
		if t.lines[id].slots[s].Load() == addr {
			m |= txMask(id)
		}
	}
	return m
}

// drainedExcept reports whether no transaction other than exceptID has
// a live reader slot for addr. exceptID < 0 excludes nobody. Write
// grants (and queue uninstalls) require this; unverified in-flight
// slots count as live, which is conservative.
func (t *biasTable) drainedExcept(addr *uint64, exceptID int) bool {
	if !t.everAny.Load() {
		return true
	}
	s := biasStripe(addr)
	for id := 0; id < MaxTxns; id++ {
		if id == exceptID {
			continue
		}
		if t.lines[id].slots[s].Load() == addr {
			return false
		}
	}
	return true
}

// biasRead is one biased read of the current transaction attempt.
type biasRead struct {
	slot *atomic.Pointer[uint64]
	addr *uint64
	site int32
}

// hasBiasedRead reports whether tx holds a biased read of addr. Callers
// guard with len(tx.biasLog) != 0 so unbiased transactions pay one
// predictable branch.
//
//go:noinline
func (tx *Tx) hasBiasedRead(addr *uint64) bool {
	for i := range tx.biasLog {
		if tx.biasLog[i].addr == addr {
			return true
		}
	}
	return false
}

// tryBiasRead attempts a biased read acquisition of addr: install the
// marker if absent, publish the reader slot, verify the marker
// survived. Returns false — with no state left behind — when the caller
// must fall back to the shared-CAS path (marker revoked or
// uninstallable, slot stripe already in use, CAS failure).
//
//go:noinline
func (tx *Tx) tryBiasRead(addr *uint64, site int32) bool {
	rt := tx.rt
	w := atomic.LoadUint64(addr)
	if wordIsWrite(w) {
		return false // write in place (possibly writing through the marker)
	}
	if !wordIsBiased(w) {
		// Install the marker. Only over an empty queue field and no
		// write lock; plain reader holder bits may remain — they coexist
		// with the marker.
		if wordQueueID(w) != 0 {
			return false
		}
		// Latch everAny BEFORE installing the marker: once the CAS lands,
		// another reader may publish+verify a slot and a concurrent
		// write-through writer then consults everAny in its drain checks —
		// if the latch landed after the CAS, that writer could read false
		// and skip the slot scan while a verified biased reader is live. A
		// stale true (CAS fails below) is conservative: it only enables
		// extra slot scans.
		rt.bias.everAny.Store(true)
		if !rt.casWord(addr, w, wordWithQueue(w, biasQID), PointBiasPublish) {
			return false
		}
	}
	slot := rt.bias.slot(tx.slot, addr)
	if slot.Load() != nil {
		return false // stripe collision within this transaction
	}
	slot.Store(addr)
	rt.yield(PointBiasPublish)
	if w := atomic.LoadUint64(addr); !wordIsBiased(w) || wordIsWrite(w) {
		// Revoked — or write-through W arrived — between publish and
		// verify: retract before reading. The writer's scan may have
		// counted this slot, so nudge any queue it installed — otherwise
		// its drain check could wait for a reader that was never really
		// there. (A write-through writer installs no queue; it rescans
		// the slots itself.)
		slot.Store(nil)
		if qid := wordRealQueue(atomic.LoadUint64(addr)); qid != 0 {
			rt.wakeQueue(qid, addr)
		}
		return false
	}
	tx.biasLog = append(tx.biasLog, biasRead{slot: slot, addr: addr, site: site})
	tx.n.BiasGrants++
	if (tx.n.BiasGrants+tx.ticket)&profMask == 0 {
		// Sampled: keep the score saturated while the bias is earning
		// its keep, and charge the site profile.
		rt.noteSite(site, siteBiasGrant)
		atomic.AddUint64(&rt.sites.at(site).n.BiasGrants, profMask+1)
	}
	return true
}

// releaseBias releases every biased read of the attempt: clear the slot
// with a plain store, then wake any queue a revoker installed over the
// word (the revoker published its queue before scanning the slots, so
// this load cannot miss a waiting revoker). Runs at Commit and Reset,
// guarded by len(tx.biasLog) != 0.
//
//go:noinline
func (tx *Tx) releaseBias() {
	for i := range tx.biasLog {
		r := &tx.biasLog[i]
		r.slot.Store(nil)
		if qid := wordRealQueue(atomic.LoadUint64(r.addr)); qid != 0 {
			tx.rt.wakeQueue(qid, r.addr)
		}
	}
	tx.biasLog = tx.biasLog[:0]
}

// biasWriteDrain waits out the published reader slots after a
// write-through acquisition: the word holds the bias marker AND the
// writer's W flag, so no new slot can verify (tryBiasRead checks W) and
// the cohort only shrinks. The slots belong to readers that are past
// their reads and just need processor time to commit, so bounded
// reschedules (Runtime.spinWait, which a harness schedules) beat a
// park/wake handoff — and there is no queue to park on anyway. Returns
// false when the budget runs out without a drain: a slot holder is
// itself blocked, and the writer must retract and go through the queue
// protocol to become visible to the deadlock detector.
//
//go:noinline
func (tx *Tx) biasWriteDrain(addr *uint64) bool {
	rt := tx.rt
	for i := 0; i < biasDrainSpinMax; i++ {
		if rt.bias.drainedExcept(addr, tx.slot) {
			tx.n.BiasWriteThrus++
			return true
		}
		rt.spinWait(0)
	}
	return false
}

// biasWriteRetract undoes a write-through acquisition whose drain wait
// timed out: clear the W flag (and the holder bit, unless the
// transaction held a plain read lock before the upgrade) so the blocked
// slot holders can make progress while the writer takes the queue
// path. If a real queue was installed over the word in the meantime (a
// spinner gave up and enqueued), wake it — the retract may have made
// its head grantable.
//
//go:noinline
func (tx *Tx) biasWriteRetract(addr *uint64, keepBit bool) {
	clear := wFlag
	if !keepBit {
		clear |= tx.mask
	}
	for {
		w := atomic.LoadUint64(addr)
		nw := w &^ clear
		if tx.rt.casWord(addr, w, nw, PointSpin) {
			if qid := wordRealQueue(nw); qid != 0 {
				tx.rt.wakeQueue(qid, addr)
			}
			return
		}
	}
}

// drainWriteThru finishes a write acquisition that may have gone through
// the bias marker: wait out the published reader slots, and when the
// drain budget runs out — some slot is not clearing, so its holder is
// likely blocked, possibly on a lock this transaction holds — retract
// the write and take the queue path, which folds the slot holders into
// the published digest and makes the cycle visible to the deadlock
// detector. The retry passes mustQueue, which keeps its spin phase from
// writing through the marker again; without it the retry could re-enter
// this loop forever and never reach the detector. keepBit: the
// transaction held a plain read lock on the word before this write.
func (tx *Tx) drainWriteThru(addr *uint64, site int32, keepBit bool) {
	for wordIsBiased(atomic.LoadUint64(addr)) && !tx.biasWriteDrain(addr) {
		tx.biasWriteRetract(addr, keepBit)
		tx.slowAcquire(addr, site, true, true)
	}
}

// noteBiasRevoke charges a bias revocation — the install CAS of
// slowAcquire replaced the marker with queue qid — to the transaction
// and the site. An empty revocation (no live foreign reader slots at
// revoke time) means the bias had no beneficiaries when a writer
// arrived; it decays the score fast so a write phase stops paying
// revocations within a few writes. A revocation that found live
// readers carries no penalty of its own: the sampled write-acquisition
// decay already prices steady writer traffic.
//
//go:noinline
func (tx *Tx) noteBiasRevoke(addr *uint64, site int32, qid int) {
	tx.n.BiasRevokes++
	atomic.AddUint64(&tx.rt.sites.at(site).n.BiasRevokes, 1)
	if tx.rt.bias.drainedExcept(addr, tx.slot) {
		tx.rt.noteSite(site, siteEmptyRevoke)
	}
	tx.rt.event(Event{Kind: EvBiasRevoke, TxID: tx.ID(), Ticket: tx.ticket, Addr: addr, QID: qid})
}
