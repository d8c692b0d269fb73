package stm

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// The slow path: fair wait queues and deadlock handling, sharded
// per-queue. Each contended lock owns a lockQueue with its own mutex, so
// slow-path traffic on unrelated locks never serializes. The queue-ID
// table is a lock-free bitmask, and deadlock detection is split into a
// lock-free dreadlocks pre-check over atomically-published per-waiter
// dependency digests plus an exact confirmation pass behind a small
// global mutex (detector.cycleMu) taken only when the pre-check reports
// a potential cycle. This code runs only after a fast-path CAS could not
// acquire a lock, so none of it affects the uncontended case the paper's
// fast path (Figure 5) optimizes.
//
// Invisible readers (readset.go) are, by construction, absent from
// everything in this file: an invisible read holds nothing — no holder
// bit, no bias slot, no queue entry — so it can neither block a writer
// nor appear on any deadlock cycle. Its conflicts surface only as its
// own commit-time validation abort, which unwinds without waiting on
// anyone. When an invisible-reading section later blocks on a lock it
// acquires pessimistically, the ordinary waiter machinery covers it.
//
// Lock ordering: cycleMu before any q.mu. At most one q.mu is held at a
// time everywhere except the confirmation pass, which (serialized by
// cycleMu) locks the queues of all blocked waiters to take an exact
// snapshot. No code parks or yields to the harness while holding a q.mu.

// waiter is one blocked transaction in one lock queue. The channel is a
// buffered(1) wake-up signal, not a completion: a woken waiter re-reads
// granted/aborted under its queue mutex and re-parks on neither. Only a
// grant or an abort signals a waiter (under a harness, Scheduler.Unblock
// fails any other wake), so the re-check is a safety net.
//
// Waiter objects are owned by the runtime and reused across blocks of
// the same transaction ID (Runtime.waiterSlots), so a slow-path block
// costs no allocation in steady state. Because stale pointers to a
// reused waiter can survive in a detection snapshot, each enqueue bumps
// the epoch; a deferred abort only lands if the epoch still matches.
type waiter struct {
	tx       *Tx
	write    bool
	upgrader bool
	granted  bool // guarded by q.mu
	aborted  bool // guarded by q.mu
	ch       chan struct{}
	// qid names the queue of the current enqueue incarnation; atomic
	// because the exact deadlock pass reads it off waiters whose queue it
	// has not locked.
	qid atomic.Int32
	// epoch identifies the enqueue incarnation of this (reused) waiter
	// object; bumped under q.mu on every enqueue.
	epoch atomic.Uint64
	// deps is the published dreadlocks digest: the bit set of
	// transactions this waiter waits for, exact at publication time and a
	// superset of the true dependencies afterwards (new lock holders can
	// only be former waiters-ahead, which are already included; a
	// front-inserted upgrader is OR-ed into the waiters behind it).
	deps atomic.Uint64
}

// signal delivers a (possibly redundant) wake-up to the waiter. The
// flags it will re-check are always written before signal is called, so
// a dropped signal (buffer already full) is never a lost wake-up.
func (wt *waiter) signal() {
	select {
	case wt.ch <- struct{}{}:
	default:
	}
}

// lockQueue is the fair FIFO queue of one contended lock, with its own
// mutex — the shard unit of the detector. The paper caps the number of
// queues at the number of concurrently active transactions: every
// waiting transaction waits on exactly one lock, so at most MaxTxns
// queues can be populated at once. Queue IDs are 1..MaxTxns (0 = none),
// and each ID owns one preallocated queue that every install of the ID
// reuses, so installing a queue allocates nothing.
type lockQueue struct {
	mu  sync.Mutex
	qid int
	// addr is the lock word the queue is installed over, nil while the ID
	// is free. Guarded by mu: a thread that read the ID from a word locks
	// the queue and compares addr before trusting it.
	addr    *uint64
	waiters []*waiter
	// waitersBuf backs waiters while the queue is short (the common case:
	// contention rarely stacks more than a few transactions on one lock).
	waitersBuf [4]*waiter
}

type detector struct {
	rt *Runtime
	// queues is indexed by queue ID (slot 0 unused).
	queues [MaxTxns + 1]lockQueue
	// freeQIDs is the free-ID bitmask (bit i set = qid i free, 1..MaxTxns).
	freeQIDs atomic.Uint64
	// blocked maps a transaction ID to its waiter while it is enqueued.
	blocked [MaxTxns]atomic.Pointer[waiter]
	// cycleMu serializes exact deadlock confirmation (and is the only
	// global lock left on the slow path). It is taken only after the
	// lock-free digest pre-check reports a potential cycle.
	cycleMu sync.Mutex
}

func newDetector(rt *Runtime) *detector {
	d := &detector{rt: rt}
	for qid := range d.queues {
		d.queues[qid].qid = qid
	}
	d.freeQIDs.Store(((1 << MaxTxns) - 1) << 1) // qids 1..MaxTxns free
	return d
}

// queueOf returns the queue of wt's current enqueue incarnation.
func (d *detector) queueOf(wt *waiter) *lockQueue { return &d.queues[wt.qid.Load()] }

// allocQID claims a free queue ID from the bitmask.
func (d *detector) allocQID() int {
	for {
		m := d.freeQIDs.Load()
		if m == 0 {
			// Cannot happen: every populated queue has at least one of the
			// at most MaxTxns waiting transactions, and empty queues are
			// uninstalled eagerly under their own mutex.
			panic("stm: queue table exhausted")
		}
		b := m & (-m)
		if d.freeQIDs.CompareAndSwap(m, m&^b) {
			return bitIndex(b)
		}
	}
}

// freeQID returns a queue ID to the bitmask.
func (d *detector) freeQID(qid int) {
	for {
		m := d.freeQIDs.Load()
		if d.freeQIDs.CompareAndSwap(m, m|uint64(1)<<uint(qid)) {
			return
		}
	}
}

// freeQIDCount returns the number of uninstalled queue IDs (test hook).
func (d *detector) freeQIDCount() int {
	return bits.OnesCount64(d.freeQIDs.Load())
}

// lockedQueue resolves the queue installed over addr and returns it with
// its mutex held, installing one first if the word names none. The
// caller must unlock (and must re-resolve rather than reuse the queue
// after unlocking, since its ID may be uninstalled and recycled). The
// second result reports that the install CAS replaced the read-bias
// marker — the revocation step of bias.go: from that CAS on, no new
// reader can publish through the slots (publishing requires the
// marker), so the live-reader cohort a write must wait out is fixed.
func (d *detector) lockedQueue(addr *uint64) (*lockQueue, bool) {
	for {
		w := atomic.LoadUint64(addr)
		if qid := wordRealQueue(w); qid != 0 {
			q := &d.queues[qid]
			q.mu.Lock()
			if q.addr == addr {
				return q, false
			}
			q.mu.Unlock()
			continue // uninstalled (and maybe recycled) since the load
		}
		// No real queue installed (the word may carry the bias marker):
		// claim an ID, lock its queue and name the word in it, then CAS
		// the ID into the word. Holding the mutex across the CAS means any
		// thread that reads the qid from the word finds the queue
		// installed over it once it gets the lock — and a biased reader
		// whose verify load sees the marker gone finds the queue to wake
		// when it retracts.
		qid := d.allocQID()
		// Only 1..MaxTxns index the queue table; 57..62 are dead values
		// of the 6-bit field and 63 is the bias marker. Installing any of
		// them would make wordRealQueue resolve garbage.
		if qid < 1 || qid > MaxTxns {
			panic(fmt.Sprintf("stm: installing invalid queue ID %d", qid))
		}
		q := &d.queues[qid]
		q.mu.Lock()
		q.addr = addr
		q.waiters = q.waitersBuf[:0]
		if d.rt.casWord(addr, w, wordWithQueue(w, qid), PointInstallCAS) {
			return q, wordIsBiased(w)
		}
		// Lost the install race; roll back and retry from the fresh word.
		q.addr = nil
		q.mu.Unlock()
		d.freeQID(qid)
	}
}

// uninstallLocked clears the queue ID from the lock word and frees the
// ID. Caller holds q.mu (still held on return) and the queue must be
// empty.
func (d *detector) uninstallLocked(q *lockQueue) {
	if len(q.waiters) != 0 {
		panic("stm: uninstall of non-empty queue")
	}
	for {
		w := atomic.LoadUint64(q.addr)
		if wordQueueID(w) != q.qid {
			break // already replaced (should not happen, but be tolerant)
		}
		if d.rt.casWord(q.addr, w, wordWithQueue(w, 0), PointUninstallCAS) {
			break
		}
	}
	q.addr = nil
	d.freeQID(q.qid)
}

// maybeUninstallLocked uninstalls an empty queue unless live biased
// reader slots still pin the word. The mutual-exclusion invariant of
// bias.go demands that a word with live reader slots keeps a non-zero
// queue field — re-bias (and with it fresh slot publishes) is only
// possible once the field returns to zero, which must mean the cohort
// drained. A pinned queue is nudged by every reader's slot release
// (releaseBias), and the last one lets it uninstall. Caller holds q.mu.
func (d *detector) maybeUninstallLocked(q *lockQueue) {
	if !d.rt.bias.drainedExcept(q.addr, -1) {
		return
	}
	d.uninstallLocked(q)
}

// slowAcquire is entered after the fast path failed. It spins briefly,
// re-checks the lock under the queue mutex, enqueues the transaction if
// the lock is still unavailable (at the front for upgrading readers,
// paper §3.2), runs deadlock detection, and blocks until granted or
// aborted; a harness runs the same steps. On grant the lock word already
// contains the transaction's bits; the caller records the lock in its
// logs. site is the contention-profile site of the lock; every outcome
// of the slow path (enqueue, upgrade, deadlock loss, time spent parked)
// is charged to it. mustQueue forbids the spin phase
// from writing through a bias marker again (drainWriteThru). The result
// says whether the grant landed in the lock word or — a read that
// re-entered a biased word mid-spin — in a bias reader slot. slowAcquire
// panics with *Aborted if the transaction is chosen as a deadlock victim.
func (tx *Tx) slowAcquire(addr *uint64, site int32, write, mustQueue bool) grantVia {
	rt := tx.rt
	d := rt.det
	rt.yield(PointSlowEnter)

	// Bounded spin before the queue protocol (promo.go): on a loaded
	// machine the holder usually releases within a reschedule or two, and
	// spinning through that window is far cheaper than a park/wake
	// handoff. Returning here does not count as contended — the Contended
	// counter keeps meaning "had to enqueue".
	if via := tx.spinAcquire(addr, site, write, mustQueue); via != viaNone {
		return via
	}

	var q *lockQueue
	var revoked bool
	var revokeStart time.Time
	for {
		// Re-check: the lock may have been released between the failed fast
		// path and here. Bypassing the queue is only fair if no one is
		// waiting. Reads may additionally join a read-biased word through
		// the shared CAS (the marker coexists with reader holder bits; see
		// bias.go).
		w := atomic.LoadUint64(addr)
		if wordQueueID(w) == 0 || (!write && wordIsBiased(w)) {
			nw, ok := grantWord(w, tx, write)
			if ok {
				if rt.casWord(addr, w, nw, PointRecheckCAS) {
					return viaWord
				}
				tx.chargeCASFail(site)
				continue
			}
		}
		var rv bool
		q, rv = d.lockedQueue(addr)
		if rv && !revoked {
			revoked = true
			revokeStart = time.Now()
			tx.noteBiasRevoke(addr, site, q.qid)
		}
		if len(q.waiters) == 0 {
			// Queue installed but empty: the bypass is still fair. A write
			// additionally needs the biased reader slots drained — live
			// visible readers exclude a writer exactly like holder bits.
			// Until they are, the write parks in the queue, which blocks
			// new publishes; the last releaseBias wakes it.
			w = atomic.LoadUint64(addr)
			nw, ok := grantWord(w, tx, write)
			if ok && write && !rt.bias.drainedExcept(addr, tx.slot) {
				ok = false
			}
			if ok {
				if rt.casWord(addr, w, nw, PointRecheckCAS) {
					d.maybeUninstallLocked(q)
					q.mu.Unlock()
					return viaWord
				}
				tx.chargeCASFail(site)
				q.mu.Unlock()
				continue
			}
		}
		break
	}
	// q.mu is held from here through the enqueue.
	tx.n.Contended++
	atomic.AddUint64(&rt.sites.at(site).n.Contended, 1)
	// A dueling write-upgrade (paper §3.3) needs no check of its own: the
	// second upgrader enqueues in front of the first, each waits on the
	// other's read lock, and the detector aborts the younger (the older
	// when the younger is inevitable), as in any cycle.
	upgrader := write && (atomic.LoadUint64(addr)&tx.mask != 0 ||
		(len(tx.biasLog) != 0 && tx.hasBiasedRead(addr)))
	if upgrader {
		atomic.AddUint64(&rt.sites.at(site).n.Upgrades, 1)
	}
	// Remember that this section's contended acquisition went through
	// the queue: its next spinAcquire parks again quickly instead of
	// sleep-polling a monopolized lock (promo.go).
	tx.requeued = true

	wt := rt.waiterFor(tx)
	wt.write, wt.upgrader = write, upgrader
	wt.qid.Store(int32(q.qid))
	wt.granted, wt.aborted = false, false
	wt.epoch.Add(1)
	if upgrader {
		// Upgraders enqueue at the front (paper §3.2). Everyone already
		// queued now also waits on the upgrader; fold its bit into their
		// published digests so the superset property survives reordering.
		for _, p := range q.waiters {
			p.deps.Store(p.deps.Load() | tx.mask)
		}
		q.waiters = append(q.waiters, nil)
		copy(q.waiters[1:], q.waiters)
		q.waiters[0] = wt
	} else {
		q.waiters = append(q.waiters, wt)
	}
	wt.deps.Store(q.depsOfLocked(wt))
	d.blocked[tx.slot].Store(wt)
	rt.event(Event{Kind: EvBlocked, TxID: tx.ID(), Ticket: tx.ticket, Addr: addr, QID: q.qid, Write: write, Upgrader: upgrader})

	// The queue may have become serviceable while we enqueued (e.g. a
	// grant raced with the install); try once before sleeping. Granted
	// here or by resolveDeadlocks, the waiter never parks on that signal.
	d.grantScanLocked(q)
	granted := wt.granted
	q.mu.Unlock()

	// Dreadlocks pre-check (lock-free): a new waits-for edge can only
	// complete cycles through the waiter that just blocked. Walk the
	// published digests; only a potential cycle pays for the global
	// confirmation lock.
	if !granted && d.potentialCycle(wt) {
		d.resolveDeadlocks(wt, site)
		q.mu.Lock()
		granted = wt.granted
		q.mu.Unlock()
	}

	// Per-site block time is sampled at the profile sampling period, like
	// acquire counts: two clock reads per block are the single largest
	// slow-path cost under heavy contention, and a 1-in-N sample scaled
	// back up keeps the profile's ranking intact. The ticket offsets the
	// sampling phase per transaction (profile.go).
	var parkStart time.Time
	blockSampled := (tx.n.Contended+tx.ticket)&profMask == 0
	if blockSampled {
		parkStart = time.Now()
	}
	for !granted {
		rt.block(PointParked)
		<-wt.ch
		rt.unblock(PointParked)
		q.mu.Lock()
		granted = wt.granted
		aborted := wt.aborted
		q.mu.Unlock()
		if aborted {
			if blockSampled {
				rt.chargeBlock(site, parkStart)
			}
			atomic.AddUint64(&rt.sites.at(site).n.Deadlocks, 1)
			if wt.upgrader {
				// Aborted while enqueued as an upgrader: a lost duel, or a
				// deadlock through the upgrade edge — either way, evidence
				// the site wants write-mode reads.
				tx.noteDuelLoss(site)
			}
			tx.selfAbort("aborted while enqueued")
		}
	}
	if blockSampled {
		rt.chargeBlock(site, parkStart)
	}
	if revoked {
		// Revocations are rare and always contended; their wait is
		// measured exactly (no sampling) so the bias layer's cost to
		// writers is directly observable.
		tx.n.BiasRevokeWaitNs += uint64(time.Since(revokeStart))
	}
	return viaWord
}

// waiterFor returns the reusable waiter object of tx's leased lock-word
// slot, draining any stale wake-up token left by a previous block. A
// blocking section always holds a slot (lockFor leases it up front).
func (rt *Runtime) waiterFor(tx *Tx) *waiter {
	wt := rt.waiterSlots[tx.slot]
	if wt == nil {
		wt = &waiter{ch: make(chan struct{}, 1)}
		rt.waiterSlots[tx.slot] = wt
	}
	select {
	case <-wt.ch:
	default:
	}
	wt.tx = tx
	return wt
}

// grantWord computes the lock word after tx acquires in the given mode,
// or reports that the acquisition is not currently possible. The queue ID
// bits are preserved.
func grantWord(w uint64, tx *Tx, write bool) (uint64, bool) {
	holders := wordHolders(w)
	if write {
		if holders == 0 || holders == tx.mask && !wordIsWrite(w) {
			return w | tx.mask | wFlag, true
		}
		return 0, false
	}
	if !wordIsWrite(w) {
		return w | tx.mask, true
	}
	return 0, false
}

// depsOfLocked returns the bit set of transactions waiter wt waits for:
// the current holders of the lock (minus itself, for upgraders) plus
// every waiter queued ahead of it (FIFO fairness makes those
// dependencies real). Caller holds q.mu.
func (q *lockQueue) depsOfLocked(wt *waiter) uint64 {
	deps := wordHolders(atomic.LoadUint64(q.addr)) &^ wt.tx.mask
	if wt.write {
		// A write waiter also waits out the transactions with live biased
		// reader slots for the word (bias.go): folding them into the
		// digest keeps deadlock detection and the youngest-victim rule
		// exact across biased readers. A slot that retracts after the
		// scan leaves a phantom edge, which the digest contract allows
		// (supersets are fine, misses are not) — and the retracting
		// reader wakes the queue, so the phantom cannot strand anyone.
		deps |= wt.tx.rt.bias.holders(q.addr) &^ wt.tx.mask
	}
	for _, p := range q.waiters {
		if p == wt {
			break
		}
		deps |= p.tx.mask
	}
	return deps
}

// grantScanLocked hands the lock to as many queue-head waiters as the
// current word permits: one writer, or a maximal run of readers. The
// queue is uninstalled when it drains. Caller holds q.mu.
func (d *detector) grantScanLocked(q *lockQueue) {
	for len(q.waiters) > 0 {
		head := q.waiters[0]
		w := atomic.LoadUint64(q.addr)
		nw, ok := grantWord(w, head.tx, head.write)
		if !ok {
			return
		}
		if head.write && wordHolders(w) != 0 && wordHolders(w) != head.tx.mask {
			return
		}
		if head.write && !d.rt.bias.drainedExcept(q.addr, head.tx.slot) {
			// Live biased reader slots (other than the head's own, kept
			// across an upgrade-from-bias) exclude a writer exactly like
			// holder bits; each slot release re-runs this scan. No new
			// slot can be published while the queue is installed, so the
			// wait is bounded by the current cohort.
			return
		}
		if !d.rt.casWord(q.addr, w, nw, PointGrantCAS) {
			continue // racing release; recompute
		}
		q.waiters = q.waiters[1:]
		d.blocked[head.tx.slot].Store(nil)
		head.granted = true
		d.rt.event(Event{Kind: EvGranted, TxID: head.tx.ID(), Ticket: head.tx.ticket, Addr: q.addr, QID: q.qid, Write: head.write, Upgrader: head.upgrader})
		head.signal()
		if head.write {
			break // a write lock excludes everything behind it
		}
	}
	if len(q.waiters) == 0 {
		d.maybeUninstallLocked(q)
		return
	}
	// Republish exact digests for the waiters that stay. Published digests
	// only ever widen between publications (the superset property), so
	// after a release-plus-grant cycle they can still name transactions
	// that are long gone — and a stale bit is enough to make the lock-free
	// pre-check report a phantom cycle and pay for an exact confirmation.
	// Every release that changes a contended word funnels through a grant
	// scan, so tightening here keeps the digests near-exact for free.
	// Write waiters keep their biased-reader edges (see depsOfLocked) —
	// dropping them here would break the superset property.
	ahead := wordHolders(atomic.LoadUint64(q.addr))
	biasHolders := d.rt.bias.holders(q.addr)
	for _, p := range q.waiters {
		base := ahead
		if p.write {
			base |= biasHolders
		}
		p.deps.Store(base &^ p.tx.mask)
		ahead |= p.tx.mask
	}
}

// wakeQueue is called by the release path after it observed a queue ID in
// the lock word it just modified.
func (rt *Runtime) wakeQueue(qid int, addr *uint64) {
	d := rt.det
	rt.yield(PointWakeQueue)
	q := &d.queues[qid]
	q.mu.Lock()
	if q.addr == addr { // else drained (or qid recycled) since the release CAS
		d.grantScanLocked(q)
	}
	q.mu.Unlock()
}

// removeWaiterLocked removes wt from q (e.g. because its transaction
// aborts) and re-runs the grant scan, since wt may have been blocking
// others. Caller holds q.mu.
func (d *detector) removeWaiterLocked(q *lockQueue, wt *waiter) {
	for i, w := range q.waiters {
		if w == wt {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			break
		}
	}
	d.blocked[wt.tx.slot].Store(nil)
	if len(q.waiters) == 0 {
		d.maybeUninstallLocked(q)
	} else {
		d.grantScanLocked(q)
	}
}

// abortWaiterLocked marks a blocked transaction as deadlock victim,
// removes it, and wakes it; the victim unwinds via selfAbort when it
// resumes. Caller holds q.mu.
func (d *detector) abortWaiterLocked(q *lockQueue, wt *waiter) {
	wt.tx.victim.Store(true)
	wt.aborted = true
	d.rt.event(Event{Kind: EvAbortWaiter, TxID: wt.tx.ID(), Addr: q.addr})
	d.removeWaiterLocked(q, wt)
	wt.signal()
}

// potentialCycle walks the published dependency digests transitively
// from wt and reports whether wt's own bit is reachable — the dreadlocks
// cycle test, lock-free (paper §4.2: a blocking variant of the
// dreadlocks algorithm modified for read/write locks). Digests are bit
// sets over lock-word slots — every blocked section holds one, and a
// slot's lease outlives its holder's wait, so slot bits name cycle
// members unambiguously. Digests are supersets of the true waits-for
// sets, so a hit may be a phantom (filtered by the exact confirmation),
// but a real cycle is never missed: every member of a stable cycle has
// its blocked entry and digest published before the last member's
// pre-check runs.
func (d *detector) potentialCycle(wt *waiter) bool {
	self := wt.tx.mask
	seen := wt.deps.Load()
	if seen&self != 0 {
		return true
	}
	frontier := seen
	for frontier != 0 {
		var next uint64
		for rest := frontier; rest != 0; {
			b := rest & (-rest)
			rest &^= b
			if bw := d.blocked[bitIndex(b)].Load(); bw != nil {
				next |= bw.deps.Load()
			}
		}
		if next&self != 0 {
			return true
		}
		frontier = next &^ seen
		seen |= next
	}
	return false
}

// resolveDeadlocks runs exact deadlock confirmation after a positive
// pre-check: under cycleMu it repeatedly takes an exact snapshot, picks
// the youngest non-inevitable member of a cycle through wt, and aborts
// it, until no cycle through wt remains. A new waits-for edge can
// complete SEVERAL cycles at once (e.g. an upgrader blocking on two
// readers that each wait on it); each round aborts one victim, which
// removes its edges.
func (d *detector) resolveDeadlocks(wt *waiter, site int32) {
	tx := wt.tx
	d.cycleMu.Lock()
	for {
		victim, vq, epoch := d.exactVictim(wt)
		if victim == nil {
			d.cycleMu.Unlock()
			return
		}
		// At the event, not through tx.n: see StatsSnapshot.
		atomic.AddUint64(&d.rt.stats.c.Deadlocks, 1)
		if victim == wt {
			q := d.queueOf(wt)
			q.mu.Lock()
			if wt.granted {
				q.mu.Unlock()
				continue // granted since the snapshot; re-confirm
			}
			d.rt.event(Event{Kind: EvAbortWaiter, TxID: tx.ID(), Addr: q.addr})
			d.removeWaiterLocked(q, wt)
			q.mu.Unlock()
			d.cycleMu.Unlock()
			atomic.AddUint64(&d.rt.sites.at(site).n.Deadlocks, 1)
			if wt.upgrader {
				tx.noteDuelLoss(site)
			}
			tx.selfAbort("deadlock victim")
		}
		// The victim may have been granted, aborted, or even reused for a
		// new block since the snapshot; the epoch check makes the abort
		// land only on the incarnation the cycle was confirmed against.
		vq.mu.Lock()
		if victim.epoch.Load() == epoch && !victim.granted && !victim.aborted {
			d.abortWaiterLocked(vq, victim)
		}
		vq.mu.Unlock()
	}
}

// exactVictim takes an exact snapshot of the waits-for graph and returns
// the youngest non-inevitable member of a cycle through wt, with the
// queue and epoch the confirmation observed it under; or nil if no cycle
// through wt exists. Caller holds cycleMu. Internally it locks the
// queues of all blocked waiters (one lock level below cycleMu; safe
// because all other code paths hold at most one q.mu and never block
// under it). Waiters that blocked after the queue set was collected are
// ignored: their own pre-check and confirmation run after ours.
func (d *detector) exactVictim(wt *waiter) (victim *waiter, vq *lockQueue, epoch uint64) {
	var snap [MaxTxns]*waiter
	var qs []*lockQueue
	for id := 0; id < MaxTxns; id++ {
		bw := d.blocked[id].Load()
		if bw == nil {
			continue
		}
		q := d.queueOf(bw)
		dup := false
		for _, have := range qs {
			if have == q {
				dup = true
				break
			}
		}
		if !dup {
			qs = append(qs, q)
		}
	}
	for _, q := range qs {
		q.mu.Lock()
	}
	defer func() {
		for _, q := range qs {
			q.mu.Unlock()
		}
	}()

	locked := func(q *lockQueue) bool {
		for _, have := range qs {
			if have == q {
				return true
			}
		}
		return false
	}
	// Re-read the blocked table under the locks: entries on locked queues
	// are now stable; anything that moved meanwhile is skipped.
	var deps [MaxTxns]uint64
	for id := 0; id < MaxTxns; id++ {
		bw := d.blocked[id].Load()
		if bw == nil {
			continue
		}
		// Only the queue lock makes the waiter's flags readable.
		bq := d.queueOf(bw)
		if !locked(bq) || bw.granted || bw.aborted {
			continue
		}
		snap[id] = bw
		deps[id] = bq.depsOfLocked(bw)
	}
	if snap[wt.tx.slot] != wt {
		return nil, nil, 0 // granted or aborted since the pre-check
	}

	// Enumerate the members of a cycle through wt with a DFS over blocked
	// waits-for edges (none: no cycle, no victim) and pick the youngest
	// (largest start ticket), so the oldest always makes progress.
	// Inevitable transactions (§3.4) must never abort; at most one exists,
	// so a non-inevitable member is always available.
	members := cycleMembers(wt, &snap, &deps)
	for _, m := range members {
		if m.tx.inevitable {
			continue
		}
		if victim == nil || m.tx.ticket > victim.tx.ticket {
			victim = m
		}
	}
	if victim == nil {
		return nil, nil, 0
	}
	ev := Event{Kind: EvDeadlock, VictimID: victim.tx.ID(), TxID: wt.tx.ID()}
	for _, m := range members {
		ev.CycleIDs = append(ev.CycleIDs, m.tx.ID())
		ev.CycleTickets = append(ev.CycleTickets, m.tx.ticket)
		ev.CycleInev = append(ev.CycleInev, m.tx.inevitable)
	}
	d.rt.event(ev)
	return victim, d.queueOf(victim), victim.epoch.Load()
}

// cycleMembers returns the blocked transactions on a waits-for cycle
// through wt, over the exact snapshot taken by exactVictim.
func cycleMembers(wt *waiter, snap *[MaxTxns]*waiter, deps *[MaxTxns]uint64) []*waiter {
	var path []*waiter
	var onPath [MaxTxns]bool
	var visited [MaxTxns]bool
	var cycle []*waiter

	var dfs func(cur *waiter) bool
	dfs = func(cur *waiter) bool {
		path = append(path, cur)
		onPath[cur.tx.slot] = true
		visited[cur.tx.slot] = true
		rest := deps[cur.tx.slot]
		for rest != 0 {
			dep := rest & (-rest)
			rest &^= dep
			depID := bitIndex(dep)
			next := snap[depID]
			if next == nil {
				continue
			}
			if next == wt {
				cycle = append(cycle, path...)
				return true
			}
			if onPath[depID] || visited[depID] {
				continue
			}
			if dfs(next) {
				return true
			}
		}
		path = path[:len(path)-1]
		onPath[cur.tx.slot] = false
		return false
	}
	dfs(wt)
	return cycle
}

// bitIndex returns the index of the single set bit in m.
func bitIndex(m uint64) int { return bits.TrailingZeros64(m) }
