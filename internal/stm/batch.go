package stm

import (
	"sync/atomic"
	"unsafe"
)

// Batched multi-word acquisition: the runtime target of the compiler's
// basic-block batching pass (internal/instrument). A BatchAcquire takes
// every distinct lock word a straight-line block will touch and acquires
// them in one traversal, in two phases:
//
//  1. An optimistic program-order trylock pass (tryBatchFast): resolve
//     each access and CAS its lock word directly, with no intermediate
//     word list and no sort. Trylocks never block, so acquisition order
//     is irrelevant for deadlock freedom on this phase. This is the
//     common uncontended case, and it is what makes a batch cheaper
//     than N single-word acquisitions: one call boundary, one slot-lease
//     check, one batched stats update, and none of the per-access
//     adaptive sampling of Tx.lockFor.
//
//  2. On the first word that cannot be taken immediately — contended,
//     queued, biased, or an upgrade — phase 1 releases everything it
//     acquired, unwinds its counters, and acquireBatchSorted re-runs
//     the whole batch: dedup the words, sort by word address, and
//     acquire in that global order, falling back to the full lockFor
//     pipeline per word where the fast CAS still fails.
//
// The sorted fallback imposes one global acquisition order on all
// batches, so two transactions whose batches overlap can never deadlock
// against each other: phase 1 holds nothing by the time phase 2 waits,
// and phase 2 waits on at most one word — the same invariant single-word
// lockFor maintains, and the deadlock detector sees at most one
// outstanding wait per batching transaction. (Locks already held from
// before the batch are not reordered, so cycles through pre-held locks
// remain possible; those are the detector's job, as ever.)

// BatchAccess names one access of a compiler-emitted BatchAcquire: a
// word field of an object, or a word element of an array. Mirrors the
// information one Access statement of the instrument IR carries.
type BatchAccess struct {
	Obj    *Object
	Field  FieldID // field accessed when !IsElem
	Index  int     // element accessed when IsElem
	IsElem bool
	Write  bool
}

// batchWord is one resolved, deduplicated lock word of a batch.
type batchWord struct {
	obj    *Object
	slab   *lockSlab
	addr   *uint64
	slot   int32 // storage index (undo capture)
	lockID int32
	site   int32
	write  bool
}

// AcquireBatch acquires the lock words behind accs in one traversal.
// After it returns, every access in accs may be performed raw
// (Object.RawWord/SetRawWord and friends) until the transaction ends:
// reads are covered by the held read locks, writes by the held write
// locks with their undo captured here. Accesses that need no locking
// (new instances, thread-local memory, final fields) are resolved
// exactly as the single-word path would resolve them.
//
// Only word-kind storage can be batched; that is all the compiler's IR
// emits. A write access to a final field panics at the actual access,
// not here, matching fieldAccess.
func (tx *Tx) AcquireBatch(accs []BatchAccess) {
	if len(accs) == 0 {
		return
	}
	// batchNoSort (tests only) must exercise the blocking path in program
	// order, so it skips the non-blocking trylock phase too.
	if tx.batchNoSort || !tx.tryBatchFast(accs) {
		tx.acquireBatchSorted(accs)
	}
	tx.revalidate()
}

// resolveBatchAccess maps one access to its storage slot, lock slot, and
// profile site. ok is false for accesses that need no lock word at all
// (final fields); local and new objects are the caller's checks.
func resolveBatchAccess(a *BatchAccess) (slot, lockID, site int32, ok bool) {
	o := a.Obj
	if a.IsElem {
		if !o.class.isArray {
			panic("stm: AcquireBatch: element access on non-array " + o.class.name)
		}
		if n := o.Len(); a.Index < 0 || a.Index >= n {
			panic("stm: AcquireBatch: index out of range")
		}
		return int32(a.Index), int32(a.Index), o.class.siteID, true
	}
	m := &o.class.fields[a.Field]
	if m.kind != KindWord {
		panic("stm: AcquireBatch: non-word field " + o.class.name + "." + m.name)
	}
	if m.final {
		return 0, 0, 0, false // no lock exists; a final write panics at the access
	}
	return m.idx, m.lockID, m.siteID, true
}

// tryBatchFast is phase 1: program-order trylocks over the whole batch.
// Returns true with every word held (plus counters flushed) on success;
// on any word that cannot be CASed immediately it rolls the attempt back
// — locks released, undo and check counters unwound — and returns false
// with nothing of the batch held, so the sorted phase starts clean.
func (tx *Tx) tryBatchFast(accs []BatchAccess) bool {
	lockMark := len(tx.lockLog)
	undoMark := len(tx.undo)
	ownedMark := tx.n.CheckOwned
	newMark := tx.n.CheckNew
	var fast, words uint64
	firstSite := int32(-1)
	var lastObj *Object
	var lastSlab *lockSlab
	for i := range accs {
		a := &accs[i]
		o := a.Obj
		slot, lockID, site, needsLock := resolveBatchAccess(a)
		if !needsLock {
			continue
		}
		if o.local {
			if a.Write {
				tx.captureUndo(o, slot, slotWord)
			}
			continue
		}
		var slab *lockSlab
		if o == lastObj {
			slab = lastSlab
		} else {
			if o.locks.Load() == nil {
				// New in this transaction: one is-new check covers the access.
				tx.n.CheckNew++
				continue
			}
			slab = tx.ensureSlab(o)
			lastObj, lastSlab = o, slab
		}
		addr := &slab.words[lockID]
		w := atomic.LoadUint64(addr)
		if w&tx.mask != 0 && (!a.Write || wordIsWrite(w)) {
			// Already held in a sufficient mode.
			tx.n.CheckOwned++
			if a.Write && len(tx.promoLog) != 0 {
				tx.promoWritten(addr)
			}
			words++
			continue
		}
		acquired := false
		if w&tx.mask == 0 && wordQueueID(w) == 0 &&
			!(len(tx.biasLog) != 0 && tx.hasBiasedRead(addr)) {
			// The lease can block only while tx.slot is unassigned, which
			// implies nothing is held anywhere — phase 1 included — so
			// waiting here cannot close a cycle.
			tx.ensureSlot()
			tx.rt.yield(PointBatchCAS)
			if nw, ok := grantWord(w, tx, a.Write); ok {
				if tx.rt.casWord(addr, w, nw, PointBatchCAS) {
					acquired = true
					fast++
					words++
					if firstSite < 0 {
						firstSite = site
					}
					tx.lockLog = append(tx.lockLog, lockLogEntry{slab: slab, lockID: lockID})
					if a.Write {
						tx.captureUndo(o, slot, slotWord)
					}
				} else {
					tx.chargeCASFail(site)
				}
			}
		}
		if !acquired {
			// Roll the optimistic attempt back: no batch word stays held
			// across the upcoming sorted (and possibly blocking) phase.
			// The trimmed undo entries were captures only — none of the
			// batch's raw writes have happened yet (they follow a
			// successful AcquireBatch), so dropping them is sound.
			tx.releaseLockEntries(lockMark)
			tx.undo = tx.undo[:undoMark]
			tx.n.CheckOwned, tx.n.CheckNew = ownedMark, newMark
			return false
		}
	}
	// Single batched accounting for the whole block. A batch with no lock
	// words at all (everything local, new, or final) is not counted — it
	// never reached the locking machinery, matching the sorted phase.
	if words > 0 {
		tx.n.Acquire += fast
		tx.n.BatchAcquires++
		tx.n.BatchWords += words
		if fast > 0 && (tx.n.Acquire+tx.ticket)&tx.rt.profMask == 0 {
			// One sampled profile charge per batch, attributed to the first
			// fast-path word's site: the batch is one compiler-chosen program
			// point, not N independent adaptive sites.
			tx.chargeAcquire(firstSite)
		}
	}
	return true
}

// acquireBatchSorted is phase 2: resolve and deduplicate the batch into
// a word list, sort it by word address, and acquire in that global
// order, blocking where needed.
func (tx *Tx) acquireBatchSorted(accs []BatchAccess) {
	words := tx.batchScratch[:0]
	for i := range accs {
		a := &accs[i]
		o := a.Obj
		slot, lockID, site, needsLock := resolveBatchAccess(a)
		if !needsLock {
			continue
		}
		if o.local {
			if a.Write {
				tx.captureUndo(o, slot, slotWord)
			}
			continue
		}
		if o.locks.Load() == nil {
			// New in this transaction: one is-new check covers the access.
			tx.n.CheckNew++
			continue
		}
		slab := tx.ensureSlab(o)
		addr := &slab.words[lockID]
		merged := false
		for j := range words {
			if words[j].addr == addr {
				if a.Write && !words[j].write {
					words[j].write = true
					words[j].slot = slot
				}
				merged = true
				break
			}
		}
		if !merged {
			words = append(words, batchWord{
				obj: o, slab: slab, addr: addr, slot: slot,
				lockID: lockID, site: site, write: a.Write,
			})
		}
	}
	if len(words) == 0 {
		tx.batchScratch = words
		return
	}
	// One slot-lease check for the whole batch (lockFor performs this
	// per access).
	tx.ensureSlot()
	if !tx.batchNoSort {
		// Insertion sort by word address: batches are small (a basic
		// block's distinct words), and sort.Slice's closure + reflect-based
		// swaps would cost more than the whole fast-path CAS loop.
		for i := 1; i < len(words); i++ {
			for j := i; j > 0 &&
				uintptr(unsafe.Pointer(words[j].addr)) < uintptr(unsafe.Pointer(words[j-1].addr)); j-- {
				words[j], words[j-1] = words[j-1], words[j]
			}
		}
	}
	var fast uint64
	for i := range words {
		bw := &words[i]
		w := atomic.LoadUint64(bw.addr)
		if w&tx.mask != 0 && (!bw.write || wordIsWrite(w)) {
			// Already held in a sufficient mode.
			tx.n.CheckOwned++
			if bw.write && len(tx.promoLog) != 0 {
				tx.promoWritten(bw.addr)
			}
			continue
		}
		acquired := false
		if w&tx.mask == 0 && wordQueueID(w) == 0 &&
			!(len(tx.biasLog) != 0 && tx.hasBiasedRead(bw.addr)) {
			tx.rt.yield(PointBatchCAS)
			if nw, ok := grantWord(w, tx, bw.write); ok {
				if tx.rt.casWord(bw.addr, w, nw, PointBatchCAS) {
					acquired = true
					fast++
					tx.lockLog = append(tx.lockLog, lockLogEntry{slab: bw.slab, lockID: bw.lockID})
					if bw.write {
						tx.captureUndo(bw.obj, bw.slot, slotWord)
					}
				} else {
					tx.chargeCASFail(bw.site)
				}
			}
		}
		if !acquired {
			// Contended, queued, biased, or an upgrade: the full pipeline.
			// Invisible reads are pinned off for the fallback — the block's
			// subsequent raw accesses assume a held lock, and a parked
			// invisVal with no accessor to consume it would corrupt the
			// next ReadWord. A panic unwinding mid-fallback leaves noInvis
			// set, which is conservative (Begin clears it).
			saved := tx.noInvis
			tx.noInvis = true
			tx.lockFor(bw.obj, bw.slot, slotWord, bw.lockID, bw.site, bw.write)
			tx.noInvis = saved
		}
	}
	// Single batched accounting: lockFor fallbacks counted themselves.
	tx.n.Acquire += fast
	tx.n.BatchAcquires++
	tx.n.BatchWords += uint64(len(words))
	if fast > 0 && (tx.n.Acquire+tx.ticket)&tx.rt.profMask == 0 {
		// One sampled profile charge per batch, attributed to the first
		// fast-path word's site: the batch is one compiler-chosen program
		// point, not N independent adaptive sites.
		tx.chargeAcquire(words[0].site)
	}
	tx.batchScratch = words[:0]
}
