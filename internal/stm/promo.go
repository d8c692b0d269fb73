package stm

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Adaptive contention management. The paper's protocol is reactive: a
// read-modify-write transaction read-locks first, upgrades on the write,
// and — when another reader upgraded concurrently — loses the dueling
// write-upgrade (§3.3) and replays immediately into the same duel. On a
// hot RMW site this turns added threads into lost throughput. Three
// cooperating mechanisms (none of which appear in the paper; see
// DESIGN.md "Divergences") turn the curve around:
//
//  1. Write-intent promotion: every duel loss boosts the promotion
//     score in the site's policy word (site.go); while it is positive,
//     lockFor acquires reads there in WRITE mode up front. The promoted
//     lock is strictly stronger, so the change is always safe — it can
//     cost read sharing, never correctness — and commits that promoted
//     without writing decay the score, so read-mostly phases regain read
//     sharing. This file keeps the per-attempt promotion log and its
//     commit-time scoring.
//  2. Abort backoff: instead of replaying an aborted section immediately,
//     Tx.RetryBackoff waits a bounded randomized exponentially-growing
//     number of reschedules, seeded per (ID, ticket) — no global PRNG,
//     and fully deterministic under a schedule harness, where the spin is
//     replaced by a single PointBackoff yield.
//  3. Bounded spin-before-enqueue: a transaction whose fast-path CAS
//     failed first spins briefly (reschedules, then short sleeps) for
//     the lock before paying for the queue protocol. Outside promoted
//     sites the spin only ever bypasses when NO queue is installed —
//     exactly the fairness rule of the existing slow-path re-check —
//     and it is bounded, so a waiter always becomes visible to the
//     deadlock detector eventually.
//  4. Bounded overtaking: while a site's promotion hint is active,
//     acquirers may CAS past an installed queue and the release path
//     defers grants to parked plain waiters, keeping a monopoly
//     episode in CAS handoff instead of a park/wake pair per
//     transaction. Deferral is bounded by grantSkipMax releases plus a
//     parkRegrant self-service timer per parked waiter, and never
//     touches upgraders, inevitable transactions, or harness runs (see
//     deferGrantLocked in queue.go).

// promoRec records one adaptive promotion of the current attempt: which
// lock word was promoted, its site, and whether a write has justified
// the promotion since.
type promoRec struct {
	addr  *uint64
	site  int32
	wrote bool
}

// notePromoted records an adaptive promotion. Out of line: the lockFor
// fast path only pays the mode decode.
//
//go:noinline
func (tx *Tx) notePromoted(addr *uint64, site int32) {
	tx.promoLog = append(tx.promoLog, promoRec{addr: addr, site: site})
	tx.n.Promotions++
	atomic.AddUint64(&tx.rt.sites.at(site).n.Promotions, 1)
	if tx.rt.wantsEvent(EvPromoted) {
		tx.rt.event(Event{Kind: EvPromoted, TxID: tx.vid, Ticket: tx.ticket, Addr: addr, Write: true})
	}
}

// promoWritten marks the promotion of addr as justified by an actual
// write. Called from the check-owned path of lockFor, guarded by
// len(promoLog) != 0, so transactions that never promoted skip it.
//
//go:noinline
func (tx *Tx) promoWritten(addr *uint64) {
	for i := len(tx.promoLog) - 1; i >= 0; i-- {
		if tx.promoLog[i].addr == addr {
			tx.promoLog[i].wrote = true
			return
		}
	}
}

// noteDuelLoss charges an upgrade-duel (or enqueued-upgrader) abort to
// the site and boosts its promotion hint (unless a strong read bias
// shields it; see next): the transaction is about to replay, and with
// the hint set its retry acquires the lock in write mode up front,
// ending the duel cycle.
//
//go:noinline
func (tx *Tx) noteDuelLoss(site int32) {
	tx.n.DuelLosses++
	atomic.AddUint64(&tx.rt.sites.at(site).n.DuelLosses, 1)
	tx.rt.noteSite(site, siteDuelLoss)
}

// flushPromo scores this transaction's promotions at commit: written
// promotions reward the site hint, unwritten ones decay it. Reset drops
// the attempt's records unscored — an aborted attempt proves nothing
// about whether the promotion would have been written. The empty check
// inlines into Commit; the scoring loop stays out of line.
func (tx *Tx) flushPromo() {
	if len(tx.promoLog) != 0 {
		tx.flushPromoSlow()
	}
}

//go:noinline
func (tx *Tx) flushPromoSlow() {
	for i := range tx.promoLog {
		r := &tx.promoLog[i]
		if r.wrote {
			tx.rt.noteSite(r.site, sitePromoWritten)
		} else {
			tx.rt.noteSite(r.site, sitePromoWasted)
			tx.n.PromoWasted++
		}
	}
	tx.promoLog = tx.promoLog[:0]
}

// Abort backoff. The spin count doubles per consecutive retry of the
// same transaction up to 1<<backoffMaxShift reschedules, randomized so
// symmetric rivals desynchronize.
const backoffMaxShift = 6

// RetryBackoff waits out a bounded randomized exponential backoff after
// a Reset, before the caller replays the atomic section. Retry loops
// (internal/core replay, internal/scalebench, the sched harness's Retry)
// call it instead of replaying immediately: the youngest loser of a duel
// otherwise charges straight back into the conflict it just lost.
//
// The PRNG is a per-transaction xorshift64 seeded from (ID, ticket) —
// deterministic given the transaction's identity, no shared state. Under
// a schedule harness the spin is replaced by a single PointBackoff
// yield, so schedules stay replayable decision-for-decision.
func (tx *Tx) RetryBackoff() {
	tx.retries++
	tx.n.Backoffs++
	rt := tx.rt
	if rt.wantsEvent(EvBackoff) {
		rt.event(Event{Kind: EvBackoff, TxID: tx.vid, Ticket: tx.ticket})
	}
	if rt.hooks != nil {
		rt.yield(PointBackoff)
		return
	}
	x := tx.nextRand()
	shift := tx.retries - 1
	if shift > backoffMaxShift {
		shift = backoffMaxShift
	}
	spins := 1 + int(x%(uint64(1)<<shift))
	tx.n.BackoffSpins += uint64(spins)
	for i := 0; i < spins; i++ {
		runtime.Gosched()
	}
}

// nextRand advances the per-transaction xorshift64 PRNG, lazily seeded
// from (ID, ticket): deterministic given the transaction's identity, no
// shared state.
func (tx *Tx) nextRand() uint64 {
	if tx.rng == 0 {
		tx.rng = uint64(tx.vid+1)<<32 ^ (tx.ticket | 1)
	}
	x := tx.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	tx.rng = x
	return x
}

// Spin-before-enqueue bounds. The whole budget is ~2ms: a couple of
// plain reschedules (on a loaded single core one reschedule usually
// spans a rival's whole critical section), then sleeps doubling from
// 128µs — on a virtualized single core every timer wake-up costs the
// progressing rival tens of microseconds, so a waiter that could not
// win within the reschedule rounds must wake rarely — with the last
// sleep jittered so symmetric spinners desynchronize. A spinner that
// exhausts the budget enqueues, so eventual queue entry — and with it
// deadlock-detector visibility — is unconditional and fast (~2ms). A
// transaction whose previous contended acquisition already went
// through the queue skips the sleep rounds entirely and re-enqueues
// after the reschedules: parked waiting is silent, while sleep-polling
// a monopolized lock charges the lock holder a timer interrupt per
// wake.
//
// Bounded overtaking: on a promoted hot-RMW site (policy.overtakes) the
// no-queue fairness rule is relaxed — acquirers may CAS past an
// installed queue, and the release path defers grants to the parked
// waiters behind it (deferGrantLocked, queue.go). This keeps a
// monopoly episode in cheap CAS handoff instead of one park/wake pair
// per transaction. Starvation stays bounded on three independent
// fences: a deferred queue is granted normally after at most
// grantSkipMax releases; every parked waiter self-runs the grant scan
// after parkRegrant of silence (so a site whose traffic stops cannot
// strand its queue); and upgraders, inevitable transactions, and
// harness runs never participate on either side.
const (
	spinGoschedRounds = 2
	spinSleepRounds   = 4
	spinSleepMinUs    = 128
	spinSleepCapUs    = 512

	grantSkipMax = 2048
	parkRegrant  = 4 * time.Millisecond
)

// overtakeOK reports whether tx may CAS a lock word past an installed
// queue at this site: production mode only, and only while the site's
// policy word allows it (policy.overtakes). Everywhere else the paper's
// rule stands: an installed queue forces the slow path.
func (tx *Tx) overtakeOK(site int32) bool {
	return tx.rt.hooks == nil && tx.rt.sites.policyAt(site).overtakes()
}

// grantVia says how a slow-path acquisition was satisfied, so the caller
// knows who owns the release.
type grantVia uint8

const (
	viaNone grantVia = iota // spinAcquire only: not acquired, enqueue
	viaWord                 // holder bit in the lock word: the caller logs the lock
	viaSlot                 // read published through a bias reader slot: biasLog owns it
)

// spinAcquire tries to take the lock by bounded spinning before
// slowAcquire pays for the queue protocol. It preserves the slow path's
// fairness rule — no acquisition while a queue is installed — except on
// promoted sites under bounded overtaking (overtakeOK), and gives up
// immediately for upgrades (an upgrader must enqueue so the structural
// duel detection and the U flag see it). Returns viaNone if the lock was
// not acquired. Only called in production (rt.hooks == nil): under a
// harness the queue machinery is exactly what runs should explore, and
// timed sleeps have no deterministic meaning.
func (tx *Tx) spinAcquire(addr *uint64, site int32, write, mustQueue bool) grantVia {
	w0 := atomic.LoadUint64(addr)
	if w0&tx.mask != 0 {
		return viaNone // upgrade: the duel machinery needs the queue
	}
	if write && len(tx.biasLog) != 0 && tx.hasBiasedRead(addr) {
		// Upgrade from a biased read whose fast-path write-through lost
		// the word: spinning would stretch the window in which a rival
		// write-through stalls on this transaction's own published slot
		// (and then burns its whole drain budget before the duel is even
		// detected). Go straight to the queue so the structural duel
		// detection resolves the standoff immediately.
		return viaNone
	}
	if mustQueue && wordIsBiased(w0) {
		// This write already wrote through the marker once and timed out
		// draining the reader slots; it must reach the queue — and the
		// deadlock detector — not write through again (drainWriteThru).
		return viaNone
	}
	overtake := tx.overtakeOK(site)
	rounds := spinGoschedRounds + spinSleepRounds
	gosched := spinGoschedRounds
	if tx.requeued {
		rounds = spinGoschedRounds // recent queue-goer: park again quickly
	}
	if wordIsBiased(w0) {
		// A biased word that could not be entered right away is mid
		// write-through (W beside the marker) or about to drain — windows
		// one critical section long. Spin on plain reschedules only, and
		// patiently: enqueueing would replace the marker with a real
		// queue and tear the bias down for every reader behind it.
		rounds, gosched = biasSpinRounds, biasSpinRounds
	}
	sleep := spinSleepMinUs * time.Microsecond
	for total := 0; total < rounds; total++ {
		w := atomic.LoadUint64(addr)
		if !write && wordIsBiased(w) && !wordIsWrite(w) && tx.tryBiasRead(addr, site) {
			// A read spinning at a biased word (it got here because a
			// write-through W was in place, or a publish raced) re-enters
			// through the reader slots the moment the W window closes.
			// Taking a plain holder bit here instead would block the next
			// writer's single-shot write-through CAS and force a full
			// revocation — holder bits must not accumulate on a marker
			// word while the bias is meant to stay up.
			tx.n.SpinAcquires++
			tx.requeued = false
			return viaSlot
		}
		if wordQueueID(w) == 0 || wordIsBiased(w) || overtake {
			if nw, ok := grantWord(w, tx, write); ok {
				if casw(addr, w, nw) {
					tx.n.SpinAcquires++
					tx.requeued = false
					return viaWord
				}
				tx.chargeCASFail(site)
			}
		}
		if total < gosched {
			runtime.Gosched()
		} else if sleep < spinSleepCapUs*time.Microsecond {
			time.Sleep(sleep)
			sleep *= 2
		} else {
			// The last, longest sleep is jittered ±50% so symmetric
			// spinners do not wake in convoy against the lock holder.
			const cap = spinSleepCapUs * time.Microsecond
			time.Sleep(cap/2 + time.Duration(tx.nextRand()%uint64(cap)))
		}
	}
	return viaNone
}
