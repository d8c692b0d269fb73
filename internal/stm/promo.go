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
// hot RMW site this turns added threads into lost throughput. Two
// cooperating mechanisms (neither of which appears in the paper; see
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
//  2. Bounded spin-before-enqueue: a transaction whose fast-path CAS
//     failed first spins briefly (reschedules, then short sleeps) for
//     the lock before paying for the queue protocol. The spin only ever
//     bypasses when NO queue is installed — exactly the fairness rule
//     of the slow-path re-check — and it is bounded, so a waiter always
//     becomes visible to the deadlock detector eventually. A schedule
//     harness runs the same spin, with each wait a scheduling point.
//
// An aborted section replays at once. Progress rests on the start
// ticket, which survives Reset: the replay queues behind the winner and
// ages until it is the oldest, which is never a victim (§3.2).

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
	if n := len(tx.promoLog); n != 0 {
		tx.flushPromoSlow()
		clear(tx.promoLog[:n]) // flushPromoSlow truncates; zero what it dropped
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

// Spin-before-enqueue bounds. The whole budget is ~2ms: a couple of
// plain reschedules (on a loaded single core one reschedule usually
// spans a rival's whole critical section), then sleeps doubling from
// 128µs — on a virtualized single core every timer wake-up costs the
// progressing rival tens of microseconds, so a waiter that could not
// win within the reschedule rounds must wake rarely — with the last
// sleep jittered so symmetric spinners desynchronize. A spinner that
// exhausts the budget enqueues, so eventual queue entry — and with it
// deadlock-detector visibility — is unconditional and fast (~2ms). A
// section that has already been through the queue once (Tx.requeued)
// skips the sleep rounds entirely and re-enqueues after the
// reschedules: parked waiting is silent, while sleep-polling a
// monopolized lock charges the lock holder a timer interrupt per wake.
const (
	spinGoschedRounds = 2
	spinSleepRounds   = 4
	spinSleepMinUs    = 128
	spinSleepCapUs    = 512
)

// spinWait is one round of a bounded wait loop (the spin, the
// write-through drain): a Yield at PointSpin under a harness, else a
// reschedule (d == 0) or a sleep of d.
func (rt *Runtime) spinWait(d time.Duration) {
	switch {
	case rt.yield(PointSpin):
	case d == 0:
		runtime.Gosched()
	default:
		time.Sleep(d)
	}
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
// fairness rule — no acquisition while a queue is installed — and gives
// up immediately for upgrades (an upgrader must enqueue at the front so
// the deadlock detector sees a duel). Returns viaNone if
// the lock was not acquired. The spin is a function of its own section:
// its budget shortens only after a queue trip within the section, and
// each round's wait is Runtime.spinWait, which a harness schedules.
func (tx *Tx) spinAcquire(addr *uint64, site int32, write, mustQueue bool) grantVia {
	w0 := atomic.LoadUint64(addr)
	if w0&tx.mask != 0 {
		return viaNone // upgrade: a duel is resolved through the queue
	}
	if write && len(tx.biasLog) != 0 && tx.hasBiasedRead(addr) {
		// Upgrade from a biased read whose fast-path write-through lost
		// the word: spinning would stretch the window in which a rival
		// write-through stalls on this transaction's own published slot
		// (and then burns its whole drain budget before the duel is even
		// detected). Go straight to the queue so the deadlock detector
		// resolves the standoff immediately.
		return viaNone
	}
	if mustQueue && wordIsBiased(w0) {
		// This write already wrote through the marker once and timed out
		// draining the reader slots; it must reach the queue — and the
		// deadlock detector — not write through again (drainWriteThru).
		return viaNone
	}
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
	const cap = spinSleepCapUs * time.Microsecond
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
		if wordQueueID(w) == 0 || wordIsBiased(w) {
			if nw, ok := grantWord(w, tx, write); ok {
				if tx.rt.casWord(addr, w, nw, PointSpin) {
					tx.n.SpinAcquires++
					tx.requeued = false
					return viaWord
				}
				tx.chargeCASFail(site)
			}
		}
		var d time.Duration // a plain reschedule
		switch {
		case total < gosched:
		case sleep < cap:
			d = sleep
			sleep *= 2
		default:
			// The last, longest sleep is jittered ±50% by a hash of
			// (ticket, round) so symmetric spinners do not wake in convoy
			// against the lock holder.
			h := (tx.ticket ^ uint64(total)<<32) * 0x9e3779b97f4a7c15
			d = cap/2 + time.Duration((h>>32)%uint64(cap))
		}
		tx.rt.spinWait(d)
	}
	return viaNone
}
