package stm

import (
	"fmt"
	"math/bits"
	"runtime"
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
// granted/aborted under its queue mutex and re-parks on neither — which
// is what lets a harness inject spurious wake-ups without breaking the
// protocol.
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
	// q is the queue of the current enqueue incarnation; atomic because the
	// exact deadlock pass reads it off waiters whose queue it has not locked.
	q atomic.Pointer[lockQueue]
	// epoch identifies the enqueue incarnation of this (reused) waiter
	// object; bumped under q.mu on every enqueue.
	epoch atomic.Uint64
	// deps is the published dreadlocks digest: the bit set of
	// transactions this waiter waits for, exact at publication time and a
	// superset of the true dependencies afterwards (new lock holders can
	// only be former waiters-ahead, which are already included; a
	// front-inserted upgrader is OR-ed into the waiters behind it) — except
	// for overtakers on a promoted site, which the waiter's parkRegrant
	// tick catches up with (slowAcquire).
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
// queues can be populated at once. Queue IDs are 1..MaxTxns (0 = none).
type lockQueue struct {
	mu      sync.Mutex
	qid     int
	addr    *uint64
	waiters []*waiter
	// waitersBuf backs waiters while the queue is short (the common case:
	// contention rarely stacks more than a few transactions on one lock),
	// so installing a queue costs one allocation, not two.
	waitersBuf [4]*waiter
	// dead marks an uninstalled queue: a thread that fetched the pointer
	// before the uninstall must drop it and re-resolve from the lock word.
	dead bool
	// delayed marks a queue whose grant scan was suppressed by fault
	// injection; Runtime.RedeliverDelayedGrants re-runs it.
	delayed bool
	// site is the contention-profile site of the lock the queue guards
	// (written under mu by the last enqueuer); it gates bounded
	// overtaking (deferGrantLocked). skips counts consecutive
	// release-path grant scans deferred by overtaking.
	site  int32
	skips uint32
}

type detector struct {
	rt *Runtime
	// queues maps queue IDs to live queues; slots are published/retracted
	// with atomic pointers so readers never need a table lock.
	queues [MaxTxns + 1]atomic.Pointer[lockQueue]
	// freeQIDs is the free-ID bitmask (bit i set = qid i free, 1..MaxTxns).
	freeQIDs atomic.Uint64
	// blocked maps a transaction ID to its waiter while it is enqueued.
	blocked [MaxTxns]atomic.Pointer[waiter]
	// cycleMu serializes exact deadlock confirmation (and is the only
	// global lock left on the slow path). It is taken only after the
	// lock-free digest pre-check reports a potential cycle.
	cycleMu      sync.Mutex
	redelivering atomic.Bool
	debug        *debugLog
}

func newDetector() *detector {
	d := &detector{}
	d.freeQIDs.Store(((1 << MaxTxns) - 1) << 1) // qids 1..MaxTxns free
	return d
}

// event forwards a protocol event to the runtime's hooks, if any.
func (d *detector) event(ev Event) {
	if d.rt != nil {
		d.rt.event(ev)
	}
}

// wantsEvent reports whether an event of kind k would be consumed; hot
// paths use it to skip building the Event struct (a 100-byte copy)
// entirely when neither recorder nor harness wants it.
func (d *detector) wantsEvent(k EventKind) bool {
	return d.rt != nil && d.rt.wantsEvent(k)
}

// cas is a fault-injectable lock-word CAS for detector code paths.
func (d *detector) cas(addr *uint64, old, new uint64, p YieldPoint) bool {
	if d.rt != nil {
		return d.rt.casWord(addr, old, new, p)
	}
	return casw(addr, old, new)
}

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
// its mutex held, installing a fresh queue first if the word names none.
// The caller must unlock (and must re-resolve rather than reuse the
// pointer after unlocking, since the queue may be uninstalled). The
// second result reports that the install CAS replaced the read-bias
// marker — the revocation step of bias.go: from that CAS on, no new
// reader can publish through the slots (publishing requires the
// marker), so the live-reader cohort a write must wait out is fixed.
func (d *detector) lockedQueue(addr *uint64) (*lockQueue, bool) {
	for {
		w := atomic.LoadUint64(addr)
		if qid := wordRealQueue(w); qid != 0 {
			q := d.queues[qid].Load()
			if q == nil || q.addr != addr {
				continue // qid mid-uninstall or recycled; re-read the word
			}
			q.mu.Lock()
			if q.dead || wordQueueID(atomic.LoadUint64(addr)) != q.qid {
				q.mu.Unlock()
				continue
			}
			return q, false
		}
		// No real queue installed (the word may carry the bias marker):
		// claim an ID, publish the queue, then CAS the ID into the word.
		// Publishing before the CAS means any thread that reads the qid
		// from the word finds the queue in the table — and a biased
		// reader whose verify load sees the marker gone finds the queue
		// to wake when it retracts.
		qid := d.allocQID()
		if debugInvariants {
			// Only 1..MaxTxns index the queue table; 57..62 are dead values
			// of the 6-bit field and 63 is the bias marker. Installing any
			// of them would make wordRealQueue resolve garbage.
			if qid < 1 || qid > MaxTxns {
				panic(fmt.Sprintf("stm: installing invalid queue ID %d", qid))
			}
		}
		q := &lockQueue{qid: qid, addr: addr}
		q.waiters = q.waitersBuf[:0]
		q.mu.Lock()
		d.queues[qid].Store(q)
		if d.cas(addr, w, wordWithQueue(w, qid), PointInstallCAS) {
			return q, wordIsBiased(w)
		}
		// Lost the install race; roll back and retry from the fresh word.
		q.dead = true
		d.queues[qid].Store(nil)
		q.mu.Unlock()
		d.freeQID(qid)
	}
}

// uninstallLocked clears the queue ID from the lock word, retracts the
// queue from the table, and frees its ID. Caller holds q.mu (still held
// on return) and the queue must be empty.
func (d *detector) uninstallLocked(q *lockQueue) {
	if len(q.waiters) != 0 {
		panic("stm: uninstall of non-empty queue")
	}
	for {
		w := atomic.LoadUint64(q.addr)
		if wordQueueID(w) != q.qid {
			break // already replaced (should not happen, but be tolerant)
		}
		if d.cas(q.addr, w, wordWithQueue(w, 0)&^uFlag, PointUninstallCAS) {
			break
		}
	}
	q.dead = true
	q.delayed = false
	d.queues[q.qid].Store(nil)
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
	if d.rt != nil && !d.rt.bias.drainedExcept(q.addr, -1) {
		return
	}
	d.uninstallLocked(q)
}

// slowAcquire is entered after the fast path failed. It re-checks the
// lock under the queue mutex, enqueues the transaction if the lock is
// still unavailable (at the front for upgrading readers, paper §3.2), runs
// deadlock detection, and blocks until granted or aborted. On grant the
// lock word already contains the transaction's bits; the caller records
// the lock in its logs. site is the contention-profile site of the lock;
// every outcome of the slow path (enqueue, upgrade duel, deadlock loss,
// time spent parked) is charged to it. mustQueue forbids the spin phase
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
	// counter keeps meaning "had to enqueue". Skipped under a harness,
	// which explores the queue machinery itself.
	if rt.hooks == nil {
		if via := tx.spinAcquire(addr, site, write, mustQueue); via != viaNone {
			return via
		}
	}

	var q *lockQueue
	var upgrader, revoked bool
	var revokeStart time.Time
	var drainSpins int
	for {
		// Re-check: the lock may have been released between the failed fast
		// path and here. Bypassing the queue is only fair if no one is
		// waiting — or if the site is under bounded overtaking (promo.go),
		// which trades strict FIFO entry for CAS handoff within the
		// release path's grantSkipMax bound. Reads may additionally join a
		// read-biased word through the shared CAS (the marker coexists
		// with reader holder bits; see bias.go).
		w := atomic.LoadUint64(addr)
		if wordQueueID(w) == 0 || (!write && wordIsBiased(w)) || tx.overtakeOK(site) {
			nw, ok := grantWord(w, tx, write)
			if ok {
				if d.cas(addr, w, nw, PointRecheckCAS) {
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
			w = atomic.LoadUint64(addr)
			nw, ok := grantWord(w, tx, write)
			if ok && write && d.rt != nil && !d.rt.bias.drainedExcept(addr, tx.slot) {
				if rt.hooks == nil && drainSpins < biasDrainSpinMax {
					// Drain-spin: the slots belong to readers that are past
					// their reads and only need processor time to commit and
					// release — the installed queue already blocks new
					// publishes, so the cohort can only shrink. A few
					// reschedules are far cheaper than a park/wake pair plus
					// a regrant timer per revocation. Bounded: a slot holder
					// that is itself blocked (a cycle through the biased
					// read) drains nothing, and the writer must reach the
					// queue — and the deadlock detector — regardless.
					drainSpins++
					q.mu.Unlock()
					runtime.Gosched()
					continue
				}
				ok = false
			}
			if ok {
				if d.cas(addr, w, nw, PointRecheckCAS) {
					d.maybeUninstallLocked(q)
					q.mu.Unlock()
					return viaWord
				}
				tx.chargeCASFail(site)
				q.mu.Unlock()
				continue
			}
		}

		tx.n.Contended++
		atomic.AddUint64(&rt.sites.at(site).n.Contended, 1)
		upgrader = write && (atomic.LoadUint64(addr)&tx.mask != 0 ||
			(len(tx.biasLog) != 0 && tx.hasBiasedRead(addr)))
		if !upgrader {
			break
		}

		atomic.AddUint64(&rt.sites.at(site).n.Upgrades, 1)
		// Dueling write-upgrades (paper §3.3): two upgrading readers of the
		// same lock always deadlock; resolve it now by aborting the younger
		// of the two instead of waiting for digest propagation. The duel is
		// detected structurally (an upgrader already enqueued) under q.mu.
		other := q.findUpgrader()
		if other == nil {
			break
		}
		// An inevitable transaction (§3.4) must never abort, so it always
		// survives.
		if tx.inevitable || (!other.tx.inevitable && tx.ticket < other.tx.ticket) {
			d.debug.duel(other.tx, tx)
			if d.wantsEvent(EvDuel) {
				d.event(Event{Kind: EvDuel, TxID: other.tx.vid, VictimID: other.tx.vid, OtherID: tx.vid, Addr: addr, Inev: tx.inevitable})
			}
			d.abortWaiterLocked(q, other)
			if q.dead {
				// Aborting the loser emptied (and uninstalled) the queue;
				// re-resolve — the bypass may even succeed now.
				q.mu.Unlock()
				continue
			}
			break
		}
		d.debug.duel(tx, other.tx)
		if d.wantsEvent(EvDuel) {
			d.event(Event{Kind: EvDuel, TxID: tx.vid, VictimID: tx.vid, OtherID: other.tx.vid, Addr: addr, Inev: other.tx.inevitable})
		}
		q.mu.Unlock()
		atomic.AddUint64(&rt.sites.at(site).n.Deadlocks, 1)
		tx.noteDuelLoss(site)
		tx.selfAbort("dueling write-upgrade")
	}
	// q.mu is held from here through the enqueue.
	q.site = site
	// Remember that this transaction's contended acquisition went through
	// the queue: its next spinAcquire parks again quickly instead of
	// sleep-polling a monopolized lock (promo.go).
	tx.requeued = true

	wt := rt.waiterFor(tx)
	wt.write, wt.upgrader = write, upgrader
	wt.q.Store(q)
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
	if upgrader {
		setWordFlag(d, addr, uFlag)
	}
	if d.debug != nil {
		d.debug.blocked(tx, addr, write, wordHolders(atomic.LoadUint64(addr)), q)
	}
	if d.wantsEvent(EvBlocked) {
		d.event(Event{Kind: EvBlocked, TxID: tx.vid, Ticket: tx.ticket, Addr: addr, QID: q.qid, Write: write, Upgrader: upgrader})
	}

	// The queue may have become serviceable while we enqueued (e.g. a
	// grant raced with the install); try once before sleeping.
	d.grantScanLocked(q)
	q.mu.Unlock()

	// Dreadlocks pre-check (lock-free): a new waits-for edge can only
	// complete cycles through the waiter that just blocked. Walk the
	// published digests; only a potential cycle pays for the global
	// confirmation lock.
	if d.potentialCycle(wt) {
		d.resolveDeadlocks(wt, site)
	}

	// Per-site block time is sampled at the profile sampling period, like
	// acquire counts: two clock reads per block are the single largest
	// slow-path cost under heavy contention, and a 1-in-N sample scaled
	// back up keeps the profile's ranking intact. ProfileSampleRate 1
	// measures every block exactly. The ticket offsets the sampling phase
	// per transaction (see lockFor).
	var parkStart time.Time
	blockSampled := (tx.n.Contended+tx.ticket)&rt.profMask == 0
	if blockSampled {
		parkStart = time.Now()
	}
	// Self-service timer against stranding (production only): bounded
	// overtaking defers release-path grants, so if the site's traffic
	// stops mid-deferral no future release will run the scan that grants
	// us. A parked waiter therefore re-runs the grant scan itself every
	// parkRegrant; under steady traffic the forced grant after
	// grantSkipMax releases arrives first and the timer never fires.
	var regrant *time.Timer
	if rt.hooks == nil {
		regrant = time.NewTimer(parkRegrant)
		defer regrant.Stop()
	}
	for {
		rt.block(PointParked)
		timerWake := false
		if regrant != nil {
			select {
			case <-wt.ch:
				if !regrant.Stop() {
					<-regrant.C
				}
			case <-regrant.C:
				timerWake = true
				q.mu.Lock()
				if !q.dead && !wt.granted && !wt.aborted {
					d.grantScanLocked(q)
					if !wt.granted && !wt.aborted {
						// Still parked: an overtaker may hold the word now,
						// and it became a holder without ever being a
						// waiter-ahead, so no published digest names it. If it
						// then blocks on a lock we hold, its own pre-check
						// walks our stale digest and misses the cycle.
						// Republish; the pre-check is repeated below.
						wt.deps.Store(q.depsOfLocked(wt))
					}
				}
				q.mu.Unlock()
			}
			regrant.Reset(parkRegrant)
		} else {
			<-wt.ch
		}
		rt.unblock(PointParked)
		q.mu.Lock()
		granted, aborted := wt.granted, wt.aborted
		q.mu.Unlock()
		if granted {
			if blockSampled {
				rt.chargeBlock(site, parkStart)
			}
			if revoked {
				// Revocations are rare and always contended; their wait is
				// measured exactly (no sampling) so the bias layer's cost
				// to writers is directly observable.
				tx.n.BiasRevokeWaitNs += uint64(time.Since(revokeStart))
			}
			return viaWord
		}
		if aborted {
			if blockSampled {
				rt.chargeBlock(site, parkStart)
			}
			atomic.AddUint64(&rt.sites.at(site).n.Deadlocks, 1)
			if wt.upgrader {
				// Aborted while enqueued as an upgrader: a duel resolved
				// against us, or a deadlock through the upgrade edge —
				// either way, evidence the site wants write-mode reads.
				tx.noteDuelLoss(site)
			}
			tx.selfAbort("aborted while enqueued")
		}
		if timerWake {
			// Neither granted nor aborted, so still enqueued. The exact
			// confirmation discards a pre-check hit that has gone stale.
			if d.potentialCycle(wt) {
				d.resolveDeadlocks(wt, site)
			}
			continue // self-service scan did not grant us; re-park
		}
		// Injected spurious wake-up (Runtime.InjectSpuriousWake): no
		// state changed; re-check and re-park.
		tx.n.SpuriousWakes++
		if rt.wantsEvent(EvSpuriousWake) {
			rt.event(Event{Kind: EvSpuriousWake, TxID: tx.vid, Addr: addr})
		}
	}
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
			return (w | tx.mask | wFlag) &^ uFlag, true
		}
		return 0, false
	}
	if !wordIsWrite(w) {
		return w | tx.mask, true
	}
	return 0, false
}

// setWordFlag ORs flag into the lock word with a CAS loop.
func setWordFlag(d *detector, addr *uint64, flag uint64) {
	for {
		w := atomic.LoadUint64(addr)
		if w&flag != 0 || d.cas(addr, w, w|flag, PointFlagCAS) {
			return
		}
	}
}

func clearWordFlag(d *detector, addr *uint64, flag uint64) {
	for {
		w := atomic.LoadUint64(addr)
		if w&flag == 0 || d.cas(addr, w, w&^flag, PointFlagCAS) {
			return
		}
	}
}

func (q *lockQueue) findUpgrader() *waiter {
	for _, wt := range q.waiters {
		if wt.upgrader {
			return wt
		}
	}
	return nil
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
	if len(q.waiters) > 0 && !d.redelivering.Load() && d.rt != nil && d.rt.hooks != nil &&
		d.rt.hooks.DelayGrant() {
		// Fault injection: suppress this grant scan. The lock word is
		// already consistent; the waiters simply stay parked until
		// RedeliverDelayedGrants re-runs the scan.
		q.delayed = true
		d.event(Event{Kind: EvDelayedGrant, QID: q.qid, Addr: q.addr})
		return
	}
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
		if head.write && d.rt != nil && !d.rt.bias.drainedExcept(q.addr, head.tx.slot) {
			// Live biased reader slots (other than the head's own, kept
			// across an upgrade-from-bias) exclude a writer exactly like
			// holder bits; each slot release re-runs this scan. No new
			// slot can be published while the queue is installed, so the
			// wait is bounded by the current cohort.
			return
		}
		if !d.cas(q.addr, w, nw, PointGrantCAS) {
			continue // racing release; recompute
		}
		q.waiters = q.waiters[1:]
		d.blocked[head.tx.slot].Store(nil)
		head.granted = true
		d.debug.granted(head.tx, q.addr, head.write)
		if d.wantsEvent(EvGranted) {
			d.event(Event{Kind: EvGranted, TxID: head.tx.vid, Ticket: head.tx.ticket, Addr: q.addr, QID: q.qid, Write: head.write, Upgrader: head.upgrader})
		}
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
	var biasHolders uint64
	if d.rt != nil {
		biasHolders = d.rt.bias.holders(q.addr)
	}
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
	q := d.queues[qid].Load()
	if q == nil || q.addr != addr {
		return // queue drained (or qid recycled) since the release CAS
	}
	q.mu.Lock()
	if !q.dead && !d.deferGrantLocked(q) {
		d.grantScanLocked(q)
	}
	q.mu.Unlock()
}

// deferGrantLocked implements the release half of bounded overtaking
// (promo.go): on a promoted hot-RMW site, the release path may leave
// plain parked waiters parked and let active transactions keep
// overtaking the queue — a monopoly episode then costs one cheap CAS
// handoff per transaction instead of a park/wake pair. The deferral is
// strictly bounded: after grantSkipMax consecutive deferred scans the
// next release grants normally (so a parked waiter waits at most
// grantSkipMax releases under traffic), each parked waiter self-services
// via its parkRegrant timer (so stopped traffic cannot strand a queue),
// and deferral never applies under a harness, to an empty queue, to an
// enqueued upgrader (duel resolution must see it progress), or to an
// inevitable transaction. Caller holds q.mu.
func (d *detector) deferGrantLocked(q *lockQueue) bool {
	rt := d.rt
	if rt == nil || rt.hooks != nil || len(q.waiters) == 0 ||
		rt.sites.policyAt(q.site).promo() == 0 {
		return false
	}
	if q.skips >= grantSkipMax {
		q.skips = 0
		return false
	}
	for _, wt := range q.waiters {
		if wt.upgrader || wt.tx.inevitable {
			return false
		}
	}
	q.skips++
	return true
}

// DrainQueues force-runs a grant scan on every installed queue,
// bypassing bounded overtaking. Call it at quiesce points — a worker
// pool draining, a benchmark run completing its op budget — where no
// further release traffic will arrive to trigger grants deferred by
// overtaking; without it, parked waiters on a quiesced promoted site
// are rescued only by their parkRegrant timers.
func (rt *Runtime) DrainQueues() {
	d := rt.det
	for qid := 1; qid <= MaxTxns; qid++ {
		q := d.queues[qid].Load()
		if q == nil {
			continue
		}
		q.mu.Lock()
		if !q.dead {
			d.grantScanLocked(q)
		}
		q.mu.Unlock()
	}
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
	if wt.upgrader && q.findUpgrader() == nil {
		clearWordFlag(d, q.addr, uFlag)
	}
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
	if d.wantsEvent(EvAbortWaiter) {
		d.event(Event{Kind: EvAbortWaiter, TxID: wt.tx.vid, Addr: q.addr})
	}
	d.removeWaiterLocked(q, wt)
	wt.signal()
}

// potentialCycle walks the published dependency digests transitively
// from wt and reports whether wt's own bit is reachable — the dreadlocks
// cycle test, lock-free. Digests are supersets of the true waits-for
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
			q := wt.q.Load()
			q.mu.Lock()
			if wt.aborted {
				// A duel resolved against us concurrently; the aborter
				// already removed us.
				q.mu.Unlock()
				d.cycleMu.Unlock()
				atomic.AddUint64(&d.rt.sites.at(site).n.Deadlocks, 1)
				if wt.upgrader {
					tx.noteDuelLoss(site)
				}
				tx.selfAbort("deadlock victim")
			}
			if wt.granted {
				q.mu.Unlock()
				continue // granted since the snapshot; re-confirm
			}
			d.event(Event{Kind: EvAbortWaiter, TxID: tx.vid, Addr: q.addr})
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
		q := bw.q.Load()
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
		bq := bw.q.Load()
		if !locked(bq) || bw.granted || bw.aborted {
			continue
		}
		snap[id] = bw
		deps[id] = bq.depsOfLocked(bw)
	}
	if snap[wt.tx.slot] != wt {
		return nil, nil, 0 // granted or aborted since the pre-check
	}

	// Fixpoint digest propagation over the snapshot (paper §4.2: a
	// blocking variant of the dreadlocks algorithm modified for
	// read/write locks). Digests are bit sets over lock-word slots —
	// every blocked section holds one, and a slot's lease outlives its
	// holder's wait, so slot bits name cycle members unambiguously: the
	// digest of a blocked transaction is its own bit plus the union of
	// the digests of everything it waits for. A cycle exists iff the
	// digest of one of wt's dependencies already contains wt's bit.
	var digests [MaxTxns]uint64
	for id := 0; id < MaxTxns; id++ {
		if snap[id] != nil {
			digests[id] = snap[id].tx.mask
		}
	}
	for changed := true; changed; {
		changed = false
		for id := 0; id < MaxTxns; id++ {
			if snap[id] == nil {
				continue
			}
			nd := digests[id]
			rest := deps[id]
			for rest != 0 {
				dep := rest & (-rest)
				rest &^= dep
				depID := bitIndex(dep)
				if snap[depID] != nil {
					nd |= digests[depID]
				} else {
					nd |= dep
				}
			}
			if nd != digests[id] {
				digests[id] = nd
				changed = true
			}
		}
	}
	cycle := false
	for rest := deps[wt.tx.slot]; rest != 0; {
		dep := rest & (-rest)
		rest &^= dep
		depID := bitIndex(dep)
		if snap[depID] != nil && digests[depID]&wt.tx.mask != 0 {
			cycle = true
			break
		}
	}
	if !cycle {
		return nil, nil, 0
	}
	// Enumerate the cycle members with a DFS over blocked waits-for edges
	// and pick the youngest (largest start ticket), so the oldest always
	// makes progress. Inevitable transactions (§3.4) must never abort; at
	// most one exists, so a non-inevitable member is always available.
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
	d.debug.deadlock(members, victim)
	if d.rt != nil && d.rt.wantsEvent(EvDeadlock) {
		ev := Event{Kind: EvDeadlock, VictimID: victim.tx.vid, TxID: wt.tx.vid}
		for _, m := range members {
			ev.CycleIDs = append(ev.CycleIDs, m.tx.vid)
			ev.CycleTickets = append(ev.CycleTickets, m.tx.ticket)
			ev.CycleInev = append(ev.CycleInev, m.tx.inevitable)
		}
		d.event(ev)
	}
	return victim, victim.q.Load(), victim.epoch.Load()
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
