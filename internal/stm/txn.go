package stm

import (
	"fmt"
	"math"
	"sync/atomic"
	"unsafe"
)

// Aborted is the panic payload used to unwind a transaction that was
// chosen as a deadlock victim. The SBD layer recovers it, calls Tx.Reset,
// and replays the atomic section.
type Aborted struct {
	Tx     *Tx
	Reason string
}

func (a *Aborted) Error() string {
	return fmt.Sprintf("stm: transaction %d aborted: %s", a.Tx.ID(), a.Reason)
}

// Resource is external state with transactional semantics attached to a
// transaction (paper §3.4/§4.4): Commit applies deferred operations and
// clears buffers; Rollback undoes performed modifications.
type Resource interface {
	Commit()
	Rollback()
}

// BufferSizer is optionally implemented by Resources to report their
// current buffer footprint for the Table 8 memory accounting.
type BufferSizer interface {
	BufferedBytes() int
}

type slotKind uint8

const (
	slotWord slotKind = iota
	slotRef
	slotStr
)

type undoEntry struct {
	obj     *Object
	slot    int32
	kind    slotKind
	oldWord uint64
	oldRef  *Object
	oldStr  string
}

type lockLogEntry struct {
	slab   *lockSlab
	lockID int32
}

// Tx is one transaction, i.e. one atomic section of the SBD model. A Tx
// must only ever be used by the goroutine that began it.
type Tx struct {
	rt *Runtime
	// slot is the leased lock-word slot (-1 while none): the bounded
	// visibility resource, acquired on the section's first lock
	// acquisition and released at commit/abort. mask is txMask(slot)
	// while a slot is held, 0 otherwise — so ownership tests against
	// unleased sections are always false.
	slot int
	mask uint64
	// ticket is the start ticket, drawn at Begin and kept across Reset:
	// both the transaction's identity (ID) and its age (smaller is
	// older) for victim selection.
	ticket uint64

	undo      []undoEntry
	lockLog   []lockLogEntry
	initLog   []*Object
	resources []Resource
	onCommit  []func()
	// wakeScratch is the reusable phase-two buffer of releaseLocks: the
	// queues observed while clearing lock words, woken after every word
	// is clear.
	wakeScratch []queueWake

	victim     atomic.Bool
	ended      bool
	inevitable bool

	// promoLog records the adaptive write-intent promotions of the current
	// attempt (promo.go); flushPromo scores them at commit, Reset drops
	// them.
	promoLog []promoRec
	// biasLog records the biased reads of the current attempt (bias.go):
	// words whose visibility this transaction published through its
	// distributed reader slots instead of the shared lock-word CAS.
	// Released in bulk by releaseBias at Commit and Reset.
	biasLog []biasRead
	// requeued remembers that this section's last contended acquisition
	// went through the wait queue; its next spinAcquire then re-enqueues
	// after the reschedule rounds instead of sleep-polling (promo.go).
	// Survives Reset, so a replay re-enqueues quickly; cleared at Begin.
	requeued bool
	// readSet records the invisible reads of the current attempt
	// (readset.go): words read with no shared store at all, revalidated
	// by Commit before anything irreversible happens. rv is the read
	// version — the clock snapshot of the attempt's first invisible
	// read (0 = none yet) — and wv the write version the commit stamps
	// written words with (0 = clock not yet ticked this commit).
	readSet []invisRead
	rv, wv  uint64
	// invisVal/invisHit hand the invisibly read value from tryInvisRead
	// (below lockFor) to the accessor: the plain slot re-read the
	// visible paths use could race a writer's store.
	invisVal uint64
	invisHit bool
	// noInvis pins the section's replays to visible reads after
	// BecomeInevitable found a non-empty read-set: an inevitable
	// transaction can never unwind on a validation failure. Survives
	// Reset deliberately; cleared at Begin.
	noInvis bool
	// batchScratch is AcquireBatch's reusable sort buffer.
	batchScratch []batchKey

	// n is the per-transaction counter block, flushed to Runtime.Stats at
	// end to keep the access fast path free of shared atomics. It
	// accumulates across Reset and flushes only at Commit or
	// AbandonAfterReset: a transaction that retries under contention would
	// otherwise pay the full set of shared atomic adds once per attempt.
	// Every runtime counter but the three of StatsSnapshot's doc comment
	// goes through it.
	n StatsSnapshot
}

// ID returns the transaction's identity, its start ticket: unbounded,
// unique for the lifetime of the runtime, assigned at Begin and kept
// across Reset. It is not the lock-word slot (see Slot).
func (tx *Tx) ID() int { return int(tx.ticket) }

// Slot returns the leased lock-word slot (0..MaxTxns-1), or -1 while
// the section holds none (it has not acquired a lock yet).
func (tx *Tx) Slot() int { return tx.slot }

// Ticket returns the transaction's start ticket; smaller is older. The
// ticket is preserved across Reset so a repeatedly aborted transaction
// ages and eventually becomes the oldest, which is never a victim.
func (tx *Tx) Ticket() uint64 { return tx.ticket }

// Runtime returns the runtime the transaction belongs to.
func (tx *Tx) Runtime() *Runtime { return tx.rt }

// selfAbort rolls nothing back by itself; it unwinds via panic so the
// section runner can Reset and replay. It is the only source of
// *Aborted, and it refuses an inevitable transaction, so no retry loop
// ever resets and replays one.
func (tx *Tx) selfAbort(reason string) {
	if tx.inevitable {
		panic("stm: abort of an inevitable transaction: " + reason)
	}
	panic(&Aborted{Tx: tx, Reason: reason})
}

// AbortRequested reports whether the transaction has been marked as a
// deadlock victim and should abort at the next opportunity.
func (tx *Tx) AbortRequested() bool { return tx.victim.Load() }

// Abort voluntarily aborts the transaction by unwinding with *Aborted;
// the section runner rolls back and replays. It exists for failure
// injection in tests and for application-level retry. An inevitable
// transaction cannot abort: Abort panics with a plain error instead.
func (tx *Tx) Abort(reason string) {
	tx.selfAbort("user abort: " + reason)
}

// BecomeInevitable makes the transaction inevitable (paper §3.4): it can
// never abort — deadlock resolution and upgrade duels always pick the
// other party — so irreversible actions may run directly inside it. At
// most one transaction is inevitable at a time; BecomeInevitable blocks
// until the token is free, which is exactly the concurrency limitation
// that made the paper choose transactional wrappers instead. It is
// implemented here for the ablation benchmark comparing the two.
func (tx *Tx) BecomeInevitable() {
	if tx.inevitable {
		return
	}
	if len(tx.readSet) != 0 {
		// Invisible reads are only sound while a validation failure can
		// still unwind the section, and an inevitable transaction never
		// unwinds. Abort-and-replay instead, with invisible reads pinned
		// off for the replay (noInvis survives Reset), so inevitability
		// is requested with an empty — trivially valid — read-set.
		// tryInvisRead also refuses while already inevitable.
		tx.noInvis = true
		tx.selfAbort("inevitability requested with invisible reads pending")
	}
	// Lease the lock-word slot before the token: the bounded resources
	// are ordered slot < token < locks, so a section parked in the slot
	// pool's overflow tier can never hold the token — no wait-for cycle
	// can pass through the slot pool.
	tx.ensureSlot()
	select {
	case <-tx.rt.inev:
	default:
		tx.n.InevWaits++
		tx.rt.block(PointInevWait)
		<-tx.rt.inev
		tx.rt.unblock(PointInevWait)
	}
	tx.inevitable = true
}

// Inevitable reports whether the transaction is inevitable.
func (tx *Tx) Inevitable() bool { return tx.inevitable }

func (tx *Tx) releaseInevitable() {
	if tx.inevitable {
		tx.inevitable = false
		tx.rt.event(Event{Kind: EvInevRelease, TxID: tx.ID()})
		tx.rt.inev <- struct{}{}
	}
}

// New allocates an instance of class c inside the transaction. The
// instance needs no locking and no undo until the transaction ends
// (paper Table 1, "new" rows); Commit moves it to the UNALLOC state.
func (tx *Tx) New(c *Class) *Object {
	o := newObject(c)
	tx.initLog = append(tx.initLog, o)
	return o
}

// NewArray allocates an array of n elements of the given kind inside the
// transaction.
func (tx *Tx) NewArray(elem Kind, n int) *Object {
	o := newArray(elem, n)
	tx.initLog = append(tx.initLog, o)
	return o
}

// NewLocal allocates a thread-local instance (paper §3.5, "thread local
// memory"): accesses skip locking, writes are undo-logged.
func (tx *Tx) NewLocal(c *Class) *Object {
	o := newObject(c)
	o.local = true
	o.locks.Store(unallocSlab)
	return o
}

// NewLocalArray allocates a thread-local array.
func (tx *Tx) NewLocalArray(elem Kind, n int) *Object {
	o := newArray(elem, n)
	o.local = true
	o.locks.Store(unallocSlab)
	return o
}

// ensureSlab performs the lazy lock-slab allocation of paper Figure 5
// step (2).
func (tx *Tx) ensureSlab(o *Object) *lockSlab {
	slab := o.locks.Load()
	for slab == unallocSlab {
		fresh := &lockSlab{words: make([]uint64, o.numLockSlots())}
		if o.locks.CompareAndSwap(unallocSlab, fresh) {
			tx.n.Init++
			tx.n.LockBytes += uint64(len(fresh.words)) * 8
			return fresh
		}
		slab = o.locks.Load()
	}
	return slab
}

// lockFor implements the locking operation of paper Figure 5 for the lock
// slot lockID of object o. The accessor has already answered a final
// field, a new object and a lock owns finds held. site is the lock's
// site (profile.go). When write is true the current value of the slot is
// captured in the undo log at acquisition time.
//
// lockFor is a dispatcher. Steps (2) and (3) are answered here from the
// lock word. A fresh read — the word is in none of our sets — loads the
// site's policy word once (site.go) and goes to the function of the mode
// it decodes to: tryInvisRead (readset.go), tryBiasRead (bias.go), or,
// like every write and every fallback, step (4) in acquireWord.
func (tx *Tx) lockFor(o *Object, slot int32, kind slotKind, lockID, site int32, write bool) {
	if o.local {
		// Thread-local memory (paper §3.5): no lock, only undo.
		if write {
			tx.captureUndo(o, slot, kind)
		}
		return
	}
	slab := tx.ensureSlab(o)
	addr := &slab.words[lockID]

	w := atomic.LoadUint64(addr)
	// mask is 0 while no slot is leased, so the ownership test is safely
	// false for a section that has not acquired anything yet.
	owned := w&tx.mask != 0
	mode := ModeVisible
	switch {
	case owned:
		// Step (3): already in our read or write set.
		if !write || wordIsWrite(w) {
			tx.n.CheckOwned++
			if write && len(tx.promoLog) != 0 {
				// A write landing on an already-write-held word may be the
				// write an adaptive promotion predicted; credit it.
				tx.promoWritten(addr)
			}
			return
		}
		// Read held, write needed: upgrade.
	case len(tx.biasLog) != 0 && tx.hasBiasedRead(addr):
		// Already a visible reader through the bias slots.
		if !write {
			tx.n.CheckOwned++
			return
		}
		// Write after a biased read of the same word: an upgrade. The
		// slot stays published (releasing it would drop read visibility
		// mid-transaction); every write-grant drain check excludes our
		// own slot, so the common case writes through the marker below,
		// and the fallback enqueues this transaction as an upgrader —
		// front of queue, where a duel is a cycle the detector resolves.
	case !write:
		pol := tx.rt.sites.policyAt(site)
		mode = pol.mode(kind == slotWord)
		if mode == ModeInvisible {
			if tx.tryInvisRead(o, slot, slab, lockID, site) {
				// Nothing published anywhere — the value is parked for the
				// accessor, the (word, version) pair joins the read-set,
				// and Commit revalidates. Reached before ensureSlot: a
				// read-only invisible section leases no slot.
				return
			}
			mode = pol.mode(false)
		}
	}
	// From here on the acquisition touches the lock word (or the bias
	// slots), which needs the bounded slot lease.
	tx.ensureSlot()
	switch mode {
	case ModePromoted:
		// This site's reads keep upgrading and losing duels, so acquire
		// in write mode up front. Strictly stronger than the requested
		// read lock — always safe.
		write = true
		tx.notePromoted(addr, site)
	case ModeBiased:
		if tx.tryBiasRead(addr, site) {
			// Visibility is published through the reader slots — no shared
			// CAS, no lock log entry; releaseBias clears the slot at commit.
			tx.revalidate()
			return
		}
	}
	if tx.acquireWord(addr, w, site, write) == viaSlot {
		tx.revalidate()
		return // biasLog owns the read; no lock-log entry
	}
	if write && tx.rt.bias.everAny.Load() {
		tx.drainWriteThru(addr, site, owned)
	}
	tx.n.Acquire++
	// The per-site acquire count is sampled 1-in-ProfilePeriod
	// (profile.go); all other site counters are slow-path-only and stay
	// exact.
	if (tx.n.Acquire+tx.ticket)&profMask == 0 {
		tx.noteSample(site, kind, write)
	}
	if !owned {
		// An upgrade keeps its original log entry: the word was already
		// logged when the read lock was taken, and release clears the W
		// flag together with the holder bit.
		tx.lockLog = append(tx.lockLog, lockLogEntry{slab: slab, lockID: lockID})
	}
	if write {
		tx.captureUndo(o, slot, kind)
	}
	tx.revalidate()
}

// acquireWord is step (4) of Figure 5: try to lock with one CAS on the
// word w was loaded from, else take the slow path (spin, enqueue, block;
// panics with *Aborted on defeat). An installed queue forces the slow
// path. A biased word admits reads through the shared CAS, and writes
// through the marker — the write-through of bias.go: W lands beside the
// marker and drainWriteThru takes care of the published reader slots.
func (tx *Tx) acquireWord(addr *uint64, w uint64, site int32, write bool) grantVia {
	tx.rt.yield(PointFastCAS)
	if wordQueueID(w) == 0 || wordIsBiased(w) {
		if nw, ok := grantWord(w, tx, write); ok {
			if tx.rt.casWord(addr, w, nw, PointFastCAS) {
				return viaWord
			}
			tx.chargeCASFail(site)
		}
	}
	return tx.slowAcquire(addr, site, write, false)
}

// noteSample charges one sampled lock-word acquisition to the site's
// counters and feeds it to the policy word as evidence: reads are
// read-hot evidence, writes decay the read-side scores. Out of line —
// the lockFor fast path pays only the sampling branch.
//
//go:noinline
func (tx *Tx) noteSample(site int32, kind slotKind, write bool) {
	tx.chargeAcquire(site)
	ev := siteRead
	switch {
	case write && kind == slotWord:
		ev = siteWriteWord
	case write:
		ev = siteWrite
	case kind == slotWord:
		ev = siteReadWord
	}
	tx.rt.noteSite(site, ev)
}

// captureUndo records the pre-write value of a slot.
func (tx *Tx) captureUndo(o *Object, slot int32, kind slotKind) {
	e := undoEntry{obj: o, slot: slot, kind: kind}
	switch kind {
	case slotWord:
		e.oldWord = o.words[slot]
	case slotRef:
		e.oldRef = o.refs[slot]
	case slotStr:
		e.oldStr = o.strs[slot]
	}
	tx.undo = append(tx.undo, e)
}

// owns answers paper Table 1 for a non-final access when the object is
// new (Figure 5 step 1) or lock lockID is already held in the mode the
// access needs (step 3); on false the accessor calls lockFor, which
// decides the rest, an owned write a promotion waits for included. It
// must stay inlinable (go build -gcflags=-m=2 prints its cost): an
// access that needs no lock operation makes no call.
func (tx *Tx) owns(o *Object, lockID int32, write bool) bool {
	slab := o.locks.Load()
	if slab == nil {
		tx.n.CheckNew++
		return true
	}
	if slab == unallocSlab {
		return false // committed, no lock held yet
	}
	w := atomic.LoadUint64(&slab.words[lockID])
	if w&tx.mask == 0 || write && (!wordIsWrite(w) || len(tx.promoLog) != 0) {
		return false
	}
	tx.n.CheckOwned++
	return true
}

// field returns the metadata of field f, which must be of kind k.
func (c *Class) field(f FieldID, k Kind) *fieldMeta {
	if m := &c.fields[f]; m.kind == k {
		return m
	}
	panic(c.kindMismatch(f, k))
}

// checkFinalWrite panics on a write to a final field outside
// construction, a local object's included: it is born committed.
func (o *Object) checkFinalWrite(m *fieldMeta) {
	if o.locks.Load() != nil {
		panic(o.class.finalWrite(m))
	}
}

// checkElem panics unless c is an array class of kind k and i indexes
// its n elements, before the index reaches a lock slab or the undo log.
func (c *Class) checkElem(i int, k Kind, n int) {
	if !c.isArray || c.elem != k || uint(i) >= uint(n) {
		panic(c.badElem(i, k, n))
	}
}

// The panic values are built out of line and the caller panics itself,
// so the compiler knows the branch ends and spills nothing for it. They
// are typed any: converting a string there would not fit the budget.

//go:noinline
func (c *Class) kindMismatch(f FieldID, k Kind) any {
	m := &c.fields[f]
	return fmt.Sprintf("stm: field %s.%s is %v, accessed as %v", c.name, m.name, m.kind, k)
}

//go:noinline
func (c *Class) finalWrite(m *fieldMeta) any {
	return fmt.Sprintf("stm: write to final field %s.%s outside construction", c.name, m.name)
}

//go:noinline
func (c *Class) badElem(i int, k Kind, n int) any {
	if !c.isArray {
		return "stm: element access on non-array " + c.name
	}
	if c.elem != k {
		return fmt.Sprintf("stm: array of %v accessed as %v", c.elem, k)
	}
	return fmt.Sprintf("stm: index %d out of range for array %s of length %d", i, c.name, n)
}

// ReadWord reads a word field under the SBD synchronization rules.
func (tx *Tx) ReadWord(o *Object, f FieldID) uint64 {
	m := o.class.field(f, KindWord)
	if !m.final && !tx.owns(o, m.lockID, false) {
		tx.lockFor(o, m.idx, slotWord, m.lockID, m.siteID, false)
		if tx.invisHit {
			// The access went invisible: the value was loaded atomically
			// inside tryInvisRead's double-check — the plain re-read below
			// could race a concurrent writer's store.
			tx.invisHit = false
			return tx.invisVal
		}
	}
	return o.words[m.idx]
}

// WriteWord writes a word field.
func (tx *Tx) WriteWord(o *Object, f FieldID, v uint64) {
	m := o.class.field(f, KindWord)
	if m.final {
		o.checkFinalWrite(m)
	} else if !tx.owns(o, m.lockID, true) {
		tx.lockFor(o, m.idx, slotWord, m.lockID, m.siteID, true)
	}
	storeWord(o, m.idx, v)
}

// storeWord performs a value store that may be observed by a racing
// invisible reader's atomic load: words of an object whose lock slab
// carries a version array are stored atomically (the reader's version
// double-check discards any torn timing, never a torn value); all
// other words — the common case, and every new/local object — keep
// the plain store.
func storeWord(o *Object, idx int32, v uint64) {
	if slab := o.locks.Load(); slab != nil && slab != unallocSlab && slab.vers.Load() != nil {
		atomic.StoreUint64(&o.words[idx], v)
		return
	}
	o.words[idx] = v
}

// ReadRef reads a reference field.
func (tx *Tx) ReadRef(o *Object, f FieldID) *Object {
	m := o.class.field(f, KindRef)
	if !m.final && !tx.owns(o, m.lockID, false) {
		tx.lockFor(o, m.idx, slotRef, m.lockID, m.siteID, false)
	}
	return o.refs[m.idx]
}

// WriteRef writes a reference field.
func (tx *Tx) WriteRef(o *Object, f FieldID, v *Object) {
	m := o.class.field(f, KindRef)
	if m.final {
		o.checkFinalWrite(m)
	} else if !tx.owns(o, m.lockID, true) {
		tx.lockFor(o, m.idx, slotRef, m.lockID, m.siteID, true)
	}
	o.refs[m.idx] = v
}

// ReadStr reads a string field.
func (tx *Tx) ReadStr(o *Object, f FieldID) string {
	m := o.class.field(f, KindStr)
	if !m.final && !tx.owns(o, m.lockID, false) {
		tx.lockFor(o, m.idx, slotStr, m.lockID, m.siteID, false)
	}
	return o.strs[m.idx]
}

// WriteStr writes a string field.
func (tx *Tx) WriteStr(o *Object, f FieldID, v string) {
	m := o.class.field(f, KindStr)
	if m.final {
		o.checkFinalWrite(m)
	} else if !tx.owns(o, m.lockID, true) {
		tx.lockFor(o, m.idx, slotStr, m.lockID, m.siteID, true)
	}
	o.strs[m.idx] = v
}

// ReadWordForWrite reads a word field while declaring write intent: the
// lock is acquired in write mode up front, so a later write to the same
// field upgrades for free and can never lose a dueling write-upgrade.
// Use it for the read half of a read-modify-write; the declared intent
// skips the adaptive promoter's learning phase entirely.
func (tx *Tx) ReadWordForWrite(o *Object, f FieldID) uint64 {
	tx.n.IntentHints++
	m := o.class.field(f, KindWord)
	if m.final {
		o.checkFinalWrite(m)
	} else if !tx.owns(o, m.lockID, true) {
		tx.lockFor(o, m.idx, slotWord, m.lockID, m.siteID, true)
	}
	return o.words[m.idx]
}

// ReadRefForWrite reads a reference field with declared write intent.
func (tx *Tx) ReadRefForWrite(o *Object, f FieldID) *Object {
	tx.n.IntentHints++
	m := o.class.field(f, KindRef)
	if m.final {
		o.checkFinalWrite(m)
	} else if !tx.owns(o, m.lockID, true) {
		tx.lockFor(o, m.idx, slotRef, m.lockID, m.siteID, true)
	}
	return o.refs[m.idx]
}

// ReadStrForWrite reads a string field with declared write intent.
func (tx *Tx) ReadStrForWrite(o *Object, f FieldID) string {
	tx.n.IntentHints++
	m := o.class.field(f, KindStr)
	if m.final {
		o.checkFinalWrite(m)
	} else if !tx.owns(o, m.lockID, true) {
		tx.lockFor(o, m.idx, slotStr, m.lockID, m.siteID, true)
	}
	return o.strs[m.idx]
}

// ReadInt reads a word field as int64.
func (tx *Tx) ReadInt(o *Object, f FieldID) int64 { return int64(tx.ReadWord(o, f)) }

// ReadIntForWrite reads a word field as int64 with declared write intent.
func (tx *Tx) ReadIntForWrite(o *Object, f FieldID) int64 {
	return int64(tx.ReadWordForWrite(o, f))
}

// WriteInt writes an int64 to a word field.
func (tx *Tx) WriteInt(o *Object, f FieldID, v int64) { tx.WriteWord(o, f, uint64(v)) }

// ReadFloat reads a word field as float64.
func (tx *Tx) ReadFloat(o *Object, f FieldID) float64 {
	return math.Float64frombits(tx.ReadWord(o, f))
}

// WriteFloat writes a float64 to a word field.
func (tx *Tx) WriteFloat(o *Object, f FieldID, v float64) {
	tx.WriteWord(o, f, math.Float64bits(v))
}

// ReadBool reads a word field as bool.
func (tx *Tx) ReadBool(o *Object, f FieldID) bool { return tx.ReadWord(o, f) != 0 }

// WriteBool writes a bool to a word field.
func (tx *Tx) WriteBool(o *Object, f FieldID, v bool) {
	var w uint64
	if v {
		w = 1
	}
	tx.WriteWord(o, f, w)
}

// ReadElem reads word element i of an array.
func (tx *Tx) ReadElem(o *Object, i int) uint64 {
	o.class.checkElem(i, KindWord, len(o.words))
	if !tx.owns(o, int32(i), false) {
		tx.lockFor(o, int32(i), slotWord, int32(i), o.class.siteID, false)
		if tx.invisHit {
			tx.invisHit = false
			return tx.invisVal
		}
	}
	return o.words[i]
}

// ReadElemForWrite reads word element i of an array with declared write
// intent (see ReadWordForWrite).
func (tx *Tx) ReadElemForWrite(o *Object, i int) uint64 {
	tx.n.IntentHints++
	o.class.checkElem(i, KindWord, len(o.words))
	if !tx.owns(o, int32(i), true) {
		tx.lockFor(o, int32(i), slotWord, int32(i), o.class.siteID, true)
	}
	return o.words[i]
}

// WriteElem writes word element i of an array.
func (tx *Tx) WriteElem(o *Object, i int, v uint64) {
	o.class.checkElem(i, KindWord, len(o.words))
	if !tx.owns(o, int32(i), true) {
		tx.lockFor(o, int32(i), slotWord, int32(i), o.class.siteID, true)
	}
	storeWord(o, int32(i), v)
}

// ReadElemRef reads reference element i of an array.
func (tx *Tx) ReadElemRef(o *Object, i int) *Object {
	o.class.checkElem(i, KindRef, len(o.refs))
	if !tx.owns(o, int32(i), false) {
		tx.lockFor(o, int32(i), slotRef, int32(i), o.class.siteID, false)
	}
	return o.refs[i]
}

// WriteElemRef writes reference element i of an array.
func (tx *Tx) WriteElemRef(o *Object, i int, v *Object) {
	o.class.checkElem(i, KindRef, len(o.refs))
	if !tx.owns(o, int32(i), true) {
		tx.lockFor(o, int32(i), slotRef, int32(i), o.class.siteID, true)
	}
	o.refs[i] = v
}

// ReadElemStr reads string element i of an array.
func (tx *Tx) ReadElemStr(o *Object, i int) string {
	o.class.checkElem(i, KindStr, len(o.strs))
	if !tx.owns(o, int32(i), false) {
		tx.lockFor(o, int32(i), slotStr, int32(i), o.class.siteID, false)
	}
	return o.strs[i]
}

// WriteElemStr writes string element i of an array.
func (tx *Tx) WriteElemStr(o *Object, i int, v string) {
	o.class.checkElem(i, KindStr, len(o.strs))
	if !tx.owns(o, int32(i), true) {
		tx.lockFor(o, int32(i), slotStr, int32(i), o.class.siteID, true)
	}
	o.strs[i] = v
}

// Register attaches a transactional resource (an I/O wrapper) to the
// transaction. Registering the same resource again is a no-op.
func (tx *Tx) Register(r Resource) {
	for _, have := range tx.resources {
		if have == r {
			return
		}
	}
	tx.resources = append(tx.resources, r)
}

// Resources returns the resources registered on the current attempt, in
// registration order: a wrapper finds its per-transaction state here
// instead of keeping a table of its own. The slice belongs to the
// transaction; callers must not modify or retain it.
func (tx *Tx) Resources() []Resource { return tx.resources }

// OnCommit defers f until the transaction commits, the mechanism behind
// the paper's deferred thread starts and deferred signals (§3.5). The
// deferred functions run after all locks are released; they are dropped
// on abort.
func (tx *Tx) OnCommit(f func()) {
	tx.onCommit = append(tx.onCommit, f)
}

// queueWake identifies one queue the release path must wake: the queue
// ID observed in a lock word as the releasing bit was cleared, plus the
// word itself (to detect ID recycling between the clear and the wake).
type queueWake struct {
	qid  int
	addr *uint64
}

// releaseLocks clears the transaction's bit (and W flag) from every lock
// in the lock log and wakes queues that were waiting on them. The
// release is two-phase: phase one CAS-clears every held word, phase two
// wakes the affected queues — deduplicated, one wake per queue — so a
// waiter is never woken into a lock the releasing transaction still
// holds (it would just fail its grant and re-park, a wasted wake and, on
// multi-lock conflicts, a source of grant/release churn).
func (tx *Tx) releaseLocks() {
	if tx.ended {
		// Commit path: every written word's new version is public before
		// the first clearing CAS below, so a section that sees any word of
		// this commit unlocked also sees the clock moved (revalidate) and
		// every version stamped (readset.go). Reset reaches here with
		// ended == false and must NOT stamp: the undo log restored the old
		// value, so the committed version never changed.
		for i := range tx.lockLog {
			tx.stampVersion(&tx.lockLog[i])
		}
	}
	wakes := tx.wakeScratch[:0]
	for i := range tx.lockLog {
		e := &tx.lockLog[i]
		addr := &e.slab.words[e.lockID]
		e.slab = nil
		tx.rt.yield(PointReleaseCAS)
		for {
			w := atomic.LoadUint64(addr)
			if w&tx.mask == 0 {
				break // defensive: upgrades no longer duplicate log entries
			}
			nw := w &^ (tx.mask | wFlag)
			if tx.rt.casWord(addr, w, nw, PointReleaseCAS) {
				// The bias marker is not a real queue (wordRealQueue);
				// waking it would index past the queue table.
				if qid := wordRealQueue(nw); qid != 0 {
					dup := false
					for _, wk := range wakes {
						if wk.qid == qid && wk.addr == addr {
							dup = true
							break
						}
					}
					if !dup {
						wakes = append(wakes, queueWake{qid: qid, addr: addr})
					}
				}
				break
			}
		}
	}
	for _, wk := range wakes {
		tx.rt.wakeQueue(wk.qid, wk.addr)
	}
	clear(wakes)
	tx.wakeScratch = wakes[:0]
	tx.lockLog = tx.lockLog[:0]
}

// accountMemory accumulates the Table 8 components of this attempt into
// the transaction-local accumulators (each attempt — commit or reset —
// counts as one measured transaction, so the count is Commits + Aborts).
func (tx *Tx) accountMemory() {
	tx.n.RWSetBytes += uint64(len(tx.lockLog))*uint64(unsafe.Sizeof(lockLogEntry{})) +
		uint64(len(tx.undo))*uint64(unsafe.Sizeof(undoEntry{})) +
		uint64(len(tx.readSet))*uint64(unsafe.Sizeof(invisRead{}))
	tx.n.UndoEntries += uint64(len(tx.undo))
	tx.n.InitEntries += uint64(len(tx.initLog))
	for _, r := range tx.resources {
		if bs, ok := r.(BufferSizer); ok {
			tx.n.BufferBytes += uint64(bs.BufferedBytes())
		}
	}
}

// flushCounters moves the per-transaction counter block into the runtime
// aggregate. Zero words are skipped: a shared atomic add costs as much as
// the acquire itself on Table6AcqRls, and on any given commit all but
// a handful of counters are zero. They are skipped four at a time and a
// window with something in it is flushed by straight-line code: Go does
// not unroll loops, and a loop testing one word per iteration measures
// 3–5 ns per commit slower than this.
func (tx *Tx) flushCounters() {
	src, dst := tx.n.words(), tx.rt.stats.c.words()
	for w := 0; w < numCounters; w += 4 {
		// The last window slides back to stay in range; the words it
		// shares with its neighbour are already flushed and zero.
		lo := min(w, numCounters-4)
		if src[lo]|src[lo+1]|src[lo+2]|src[lo+3] == 0 {
			continue
		}
		flushWord(dst, src, lo)
		flushWord(dst, src, lo+1)
		flushWord(dst, src, lo+2)
		flushWord(dst, src, lo+3)
	}
}

func flushWord(dst, src *[numCounters]uint64, i int) {
	if v := src[i]; v != 0 {
		atomic.AddUint64(&dst[i], v)
		src[i] = 0
	}
}

// Commit ends the transaction successfully: resources commit (flushing
// deferred I/O), new instances move to the UNALLOC state, locks are
// released, deferred actions run, and the lock-word slot lease (if one
// was taken) returns to the pool. The Tx must not be used afterwards.
func (tx *Tx) Commit() {
	if tx.ended {
		panic("stm: Commit on ended transaction")
	}
	if len(tx.readSet) != 0 {
		// Commit-time revalidation of the invisible reads, before ended
		// is set and before anything irreversible: a failure unwinds with
		// *Aborted and the section runner must still be able to Reset.
		tx.validateReads()
	}
	tx.ended = true
	tx.accountMemory()
	// Each entry is zeroed as it ends, here and in Reset, so a pooled Tx
	// keeps no wrapper's per-transaction state alive.
	for i, r := range tx.resources {
		r.Commit()
		tx.resources[i] = nil
	}
	for i, o := range tx.initLog {
		o.locks.Store(unallocSlab)
		tx.initLog[i] = nil
	}
	// Field by field: cheaper than clear's runtime call on a short log.
	for i := range tx.undo {
		e := &tx.undo[i]
		e.obj, e.oldRef, e.oldStr = nil, nil, ""
	}
	tx.releaseLocks()
	if n := len(tx.biasLog); n != 0 {
		tx.releaseBias()
		clear(tx.biasLog[:n]) // releaseBias truncates; zero what it dropped
	}
	tx.releaseInevitable()
	// Take ownership of the deferred callbacks before clearLogs zeroes
	// the backing array (Commit is terminal, so losing the capacity here
	// is free; the [:0] reuse in clearLogs benefits the Reset path).
	deferred := tx.onCommit
	tx.onCommit = nil
	tx.clearLogs()
	tx.n.Commits++
	tx.flushPromo() // before flushCounters: scoring bumps PromoWasted
	tx.flushCounters()
	tx.rt.endTx(tx)
	for _, f := range deferred {
		f()
	}
}

// Reset rolls the transaction back and prepares it for a retry of the
// same atomic section: resources roll back, the undo log is applied in
// reverse, locks are released, deferred actions are dropped. The
// transaction keeps its slot lease and its start ticket, which is also
// its ID (so it ages toward being the oldest, which guarantees
// progress).
//
// An inevitable transaction never unwinds with *Aborted (selfAbort), so
// a retry loop never resets one; only a dying thread does, to roll back
// and release before AbandonAfterReset. Reset then also returns the
// inevitability token.
func (tx *Tx) Reset() {
	if tx.ended {
		panic("stm: Reset on ended transaction")
	}
	tx.accountMemory()
	for i := len(tx.resources) - 1; i >= 0; i-- {
		tx.resources[i].Rollback()
		tx.resources[i] = nil
	}
	for i := len(tx.undo) - 1; i >= 0; i-- {
		e := &tx.undo[i]
		switch e.kind {
		case slotWord:
			// storeWord: the restore races invisible readers the same way
			// the write it undoes did.
			storeWord(e.obj, e.slot, e.oldWord)
		case slotRef:
			e.obj.refs[e.slot] = e.oldRef
		case slotStr:
			e.obj.strs[e.slot] = e.oldStr
		}
		*e = undoEntry{}
	}
	clear(tx.initLog)
	tx.releaseLocks()
	if n := len(tx.biasLog); n != 0 {
		tx.releaseBias()
		clear(tx.biasLog[:n]) // releaseBias truncates; zero what it dropped
	}
	tx.releaseInevitable()
	tx.clearLogs()
	// Promotions of the aborted attempt are dropped unscored: the attempt
	// never reached commit, so whether the promotion would have been
	// written is unknown.
	clear(tx.promoLog)
	tx.promoLog = tx.promoLog[:0]
	tx.victim.Store(false)
	// Charged now, not through tx.n: a section that keeps retrying must
	// show its aborts (AbortRate +Inf is how a livelock reads).
	atomic.AddUint64(&tx.rt.stats.c.Aborts, 1)
	// The other counters stay in tx.n across the retry; Commit (or
	// AbandonAfterReset) flushes them once.
}

// AbandonAfterReset retires a reset transaction that will not be
// retried (e.g. the thread is shutting down), releasing its slot lease.
func (tx *Tx) AbandonAfterReset() {
	if tx.ended {
		return
	}
	tx.ended = true
	tx.flushPromo()
	tx.flushCounters()
	tx.rt.endTx(tx)
}

// ensureSlot leases the lock-word slot on the section's first lock
// acquisition (or inevitability request); until then the section
// occupies none of the bounded MaxTxns slots.
func (tx *Tx) ensureSlot() {
	if tx.slot < 0 {
		tx.rt.acquireSlot(tx)
	}
}

// clearLogs truncates the attempt's logs for reuse. Their pointers are
// zeroed first, here or by Commit, Reset and the releases, so a pooled
// Tx keeps no finished section's objects, old values or slabs alive.
func (tx *Tx) clearLogs() {
	tx.undo = tx.undo[:0]
	tx.initLog = tx.initLog[:0]
	tx.resources = tx.resources[:0]
	if len(tx.readSet) != 0 {
		for i := range tx.readSet {
			tx.readSet[i].slab = nil // don't retain slabs past the attempt
		}
		tx.readSet = tx.readSet[:0]
	}
	tx.rv, tx.wv = 0, 0
	tx.invisHit = false
	// Reuse the onCommit backing array like the other logs, but zero the
	// entries first: dropped callbacks must not be retained past the
	// transaction (they may close over large state).
	for i := range tx.onCommit {
		tx.onCommit[i] = nil
	}
	tx.onCommit = tx.onCommit[:0]
}
