package stm

import "sync/atomic"

// Invisible reads: the TL2-style optimistic tier of the four read
// modes (see site.go for mode selection). A visible reader — holder
// bit or bias slot — stores something shared per first access; an
// invisible reader stores nothing. Instead it records (lock word,
// observed version) in a private read-set and the commit proves the
// set is still current before anything irreversible happens.
//
// Protocol:
//
//   - Writers stamp. A committing transaction that wrote a word whose
//     slab carries a version array stores the new global clock value
//     into the word's version slot BEFORE its first release CAS clears
//     any lock (Tx.stampVersion, called from releaseLocks — which
//     also covers bias write-throughs, since a write-through holds W
//     beside the marker and releases through the same log). Under Go's
//     sequentially-consistent atomics, "lock word shows no writer"
//     therefore implies "every committed write here is stamped".
//     Aborted attempts restore the old value via the undo log and do
//     NOT stamp: the committed value never changed.
//
//   - Readers double-check. tryInvisRead loads the lock word (no
//     writer may be in place), the version, the value, and then the
//     lock word and version again; any movement falls back to the
//     pessimistic path. The observed version must also be ≤ the
//     transaction's read version rv (the clock snapshot of its first
//     invisible read); a newer version triggers snapshot extension —
//     re-snapshot the clock, revalidate the whole read-set — so a
//     transaction never consumes two reads no single moment could have
//     produced (no zombie sections: user code between reads runs only
//     on consistent snapshots). A visible grant that follows an
//     invisible read makes the same check (Tx.revalidate).
//
//   - Commit revalidates. validateReads runs before the undo log is
//     discarded, before resources commit, and before any lock is
//     released: each entry must still show its recorded version and no
//     foreign write lock. Failure unwinds with *Aborted exactly like a
//     deadlock victim — the section runner resets (restoring undo
//     state) and replays — and crushes the site's invisible score so
//     the retry reads visibly.
//
// Value loads and stores: an invisible reader's value load can race a
// writer's store by design (the version re-check discards the racy
// read). Both sides are therefore atomic: tryInvisRead loads the value
// atomically, and every value store to a word whose slab carries a
// version array goes through Tx.storeWord's atomic branch (txn.go).
// The version array is installed by the FIRST would-be-invisible
// reader, which then completes visibly — so by the time any invisible
// read is granted, the array install precedes it in the total order,
// and every writer's post-acquisition storeWord check sees it.
//
// The deadlock detector needs no new edges: an invisible reader holds
// nothing and blocks nobody — it is simply absent from every wait
// graph (queue.go) — and its own later blocking, on locks it acquires
// pessimistically, uses the ordinary machinery.
//
// Invisible mode covers word fields and word array elements only:
// reference and string slots cannot be loaded atomically alongside a
// racing writer without boxing, so they keep the three visible modes.

// invisRead is one invisible read of the current transaction attempt.
type invisRead struct {
	slab   *lockSlab
	lockID int32
	site   int32
	v      uint64 // version observed at read time
}

// tryInvisRead attempts an invisible read of o's word valIdx, guarded
// by lock slot lockID of slab. On success the value is parked in
// tx.invisVal/invisHit for the accessor to consume, the read is
// appended to the read-set unless it repeats the last entry, and no
// shared memory was written. Returns false — with no state left
// behind — when the caller must fall back to the pessimistic paths (no
// version array yet, a writer in place, or the word moved underfoot).
// May panic with *Aborted when a required snapshot extension fails.
//
//go:noinline
func (tx *Tx) tryInvisRead(o *Object, valIdx int32, slab *lockSlab, lockID, site int32) bool {
	rt := tx.rt
	vp := slab.vers.Load()
	if vp == nil {
		// First would-be-invisible read of this object: install the
		// version array, then complete THIS read visibly. Granting it
		// invisibly would break the writer-side race argument above — a
		// writer already inside its critical section may have checked
		// vers before the install and would store the value plainly.
		if slab.installVersions() {
			tx.n.LockBytes += uint64(len(slab.words)) * 8
		}
		return false
	}
	if tx.noInvis || tx.inevitable {
		// Inevitability pinned this section to visible reads: a
		// validation failure could never unwind it (txn.go).
		return false
	}
	vers := *vp
	if tx.rv == 0 {
		tx.rv = rt.vc.now()
	}
	addr := &slab.words[lockID]
	w := atomic.LoadUint64(addr)
	if wordIsWrite(w) {
		return false // writer in place; its value may be uncommitted
	}
	ver := &vers[lockID]
	v1 := atomic.LoadUint64(ver)
	val := atomic.LoadUint64(&o.words[valIdx])
	if w2 := atomic.LoadUint64(addr); wordIsWrite(w2) || atomic.LoadUint64(ver) != v1 {
		return false // moved underfoot; the pessimistic path will wait properly
	}
	if v1 > tx.rv && tx.extendSnapshot() != nil {
		// The word committed after our snapshot and some earlier read
		// no longer holds: no single moment produced this read-set.
		tx.invisAbort(site)
	}
	// A repeat of the last entry proves nothing that entry does not.
	e := invisRead{slab: slab, lockID: lockID, site: site, v: v1}
	if n := len(tx.readSet); n == 0 || tx.readSet[n-1] != e {
		tx.readSet = append(tx.readSet, e)
	}
	tx.invisVal, tx.invisHit = val, true
	tx.n.InvisReads++
	if (tx.n.InvisReads+tx.ticket)&profMask == 0 {
		atomic.AddUint64(&rt.sites.at(site).n.InvisReads, profMask+1)
	}
	return true
}

// firstInvalid returns the first invisible read that no longer holds, or
// nil: an entry holds while its recorded version is current and no other
// transaction holds the word in write mode (an eager writer's value may
// already be in memory before its stamp). A word this transaction itself
// write-locked — an upgrade from an invisible read — passes the lock
// check but must still pass the version check: a foreign commit between
// the invisible read and the upgrade is exactly the lost-update window.
//
// Per entry the lock word is loaded before the version: writers stamp
// before clearing, so "no writer AND version unchanged" in that order
// proves no commit landed since the read (a commit racing the two
// loads flips the version first).
func (tx *Tx) firstInvalid() *invisRead {
	for i := range tx.readSet {
		e := &tx.readSet[i]
		w := atomic.LoadUint64(&e.slab.words[e.lockID])
		if (wordIsWrite(w) && w&tx.mask == 0) ||
			atomic.LoadUint64(&(*e.slab.vers.Load())[e.lockID]) != e.v {
			return e
		}
	}
	return nil
}

// extendSnapshot re-snapshots the clock and revalidates the read-set
// (TL2 snapshot extension): on success (nil) the transaction's read
// version advances and the triggering access may proceed; otherwise it
// returns the read that no longer holds.
func (tx *Tx) extendSnapshot() *invisRead {
	now := tx.rt.vc.now()
	if e := tx.firstInvalid(); e != nil {
		return e
	}
	tx.rv = now
	return nil
}

// revalidate is the opacity check of a fresh visible grant (lockFor,
// which AcquireBatch also goes through): once the clock has passed rv,
// a section that read invisibly extends its snapshot or aborts before
// it can consume the new value beside a stale one — Kuznetsov & Ravi's
// incremental validation. Called after the grant is logged, so an
// abort releases it.
func (tx *Tx) revalidate() {
	if len(tx.readSet) != 0 {
		tx.revalidateSlow()
	}
}

//go:noinline
func (tx *Tx) revalidateSlow() {
	if tx.rt.vc.now() != tx.rv {
		if e := tx.extendSnapshot(); e != nil {
			tx.invisAbort(e.site)
		}
	}
}

// validateReads is the commit-time revalidation, called before the
// undo log is discarded, before resources commit, and before any lock
// releases — a failure must leave a fully resettable transaction. It
// panics with *Aborted on failure; the section runner resets and
// replays, and the crushed site score makes the replay read visibly.
//
//go:noinline
func (tx *Tx) validateReads() {
	tx.rt.yield(PointValidate)
	if e := tx.firstInvalid(); e != nil {
		tx.invisAbort(e.site)
	}
}

// invisAbort charges a validation abort to the transaction and the
// site, crushes the site's invisible score (the optimism just cost a
// rollback), and unwinds with *Aborted for the section runner to
// reset and replay.
//
//go:noinline
func (tx *Tx) invisAbort(site int32) {
	tx.n.ValidationAborts++
	rt := tx.rt
	rt.noteSite(site, siteValidationAbort)
	atomic.AddUint64(&rt.sites.at(site).n.ValAborts, 1)
	rt.event(Event{Kind: EvValidationAbort, TxID: tx.ID(), Ticket: tx.ticket})
	tx.selfAbort("invisible-read validation failed")
}

// stampVersion publishes the new version of a held word if this
// transaction wrote it, called by releaseLocks on the commit path BEFORE
// any release CAS clears a lock of the commit — the ordering validation
// depends on. Words whose slab never grew a version array (no reader
// ever went invisible there) cost one pointer load and a not-taken
// branch; the lock word itself is loaded only for a versioned slab.
func (tx *Tx) stampVersion(e *lockLogEntry) {
	vp := e.slab.vers.Load()
	if vp == nil {
		return
	}
	if w := atomic.LoadUint64(&e.slab.words[e.lockID]); !wordIsWrite(w) || w&tx.mask == 0 {
		return
	}
	if tx.wv == 0 {
		tx.wv = tx.rt.vc.tick() // one clock bump per stamping commit
	}
	tx.rt.yield(PointVersionStamp)
	atomic.StoreUint64(&(*vp)[e.lockID], tx.wv)
}
