package stm

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Aborted is the panic payload used to unwind a transaction that was
// chosen as a deadlock victim. The SBD layer recovers it, calls Tx.Reset,
// and replays the atomic section.
type Aborted struct {
	Tx     *Tx
	Reason string
}

func (a *Aborted) Error() string {
	return fmt.Sprintf("stm: transaction %d aborted: %s", a.Tx.vid, a.Reason)
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
	// vid is the transaction's unbounded virtual ID — its identity in
	// events, debug output, and the serving-path accounting. Assigned
	// at Begin from the Tx's lease block (vidNext..vidEnd) over the
	// runtime's central counter.
	vid             int
	vidNext, vidEnd uint64
	// slot is the leased lock-word slot (-1 while none): the bounded
	// visibility resource, acquired on the section's first lock
	// acquisition and released at commit/abort. mask is txMask(slot)
	// while a slot is held, 0 otherwise — so ownership tests against
	// unleased sections are always false.
	slot   int
	mask   uint64
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
	// them. retries counts consecutive Resets of this transaction and
	// drives the RetryBackoff window; rng is the per-transaction xorshift64
	// state, lazily seeded from (vid, ticket).
	promoLog []promoRec
	retries  uint32
	rng      uint64
	// biasLog records the biased reads of the current attempt (bias.go):
	// words whose visibility this transaction published through its
	// distributed reader slots instead of the shared lock-word CAS.
	// Released in bulk by releaseBias at Commit and Reset.
	biasLog []biasRead
	// requeued remembers that this transaction's last contended
	// acquisition went through the wait queue; its next spinAcquire then
	// re-enqueues after the reschedule rounds instead of sleep-polling
	// (promo.go). Deliberately not reset across Begin: the signal is
	// about the worker's recent history, which transaction reuse tracks.
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
	// (below fieldAccess/elemAccess) to the accessor: the plain slot
	// re-read the visible paths use could race a writer's store.
	invisVal uint64
	invisHit bool
	// noInvis pins the section's replays to visible reads after
	// BecomeInevitable found a non-empty read-set: an inevitable
	// transaction can never unwind on a validation failure. Survives
	// Reset deliberately; cleared at Begin.
	noInvis bool
	// batchScratch is AcquireBatch's reusable resolved-word buffer.
	// batchNoSort disables the address sort (tests only: it exists to
	// demonstrate the deadlock the sort prevents).
	batchScratch []batchWord
	batchNoSort  bool

	// n is the per-transaction counter block, flushed to Runtime.Stats at
	// end to keep the access fast path free of shared atomics. It
	// accumulates across Reset and flushes only at Commit or
	// AbandonAfterReset: a transaction that retries under contention would
	// otherwise pay the full set of shared atomic adds once per attempt.
	// Every runtime counter but the three of StatsSnapshot's doc comment
	// goes through it.
	n StatsSnapshot
}

// ID returns the transaction's virtual ID: unbounded, unique for the
// lifetime of the runtime, assigned at Begin. It is not the lock-word
// slot (see Slot).
func (tx *Tx) ID() int { return tx.vid }

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
// section runner can Reset and replay.
func (tx *Tx) selfAbort(reason string) {
	panic(&Aborted{Tx: tx, Reason: reason})
}

// AbortRequested reports whether the transaction has been marked as a
// deadlock victim and should abort at the next opportunity.
func (tx *Tx) AbortRequested() bool { return tx.victim.Load() }

// Abort voluntarily aborts the transaction by unwinding with *Aborted;
// the section runner rolls back and replays. It exists for failure
// injection in tests and for application-level retry. An inevitable
// transaction cannot abort.
func (tx *Tx) Abort(reason string) {
	if tx.inevitable {
		panic("stm: Abort on an inevitable transaction")
	}
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
		tx.rt.inev <- struct{}{}
		tx.rt.event(Event{Kind: EvInevRelease, TxID: tx.vid})
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
// slot lockID of object o. The caller has already established that o is
// not new (locks != nil), not thread-local, and that the field is not
// final. site is the lock's site (profile.go). When write is true the
// current value of the slot is captured in the undo log at acquisition
// time.
//
// lockFor is a dispatcher. Steps (2) and (3) are answered here from the
// lock word. A fresh read — the word is in none of our sets — loads the
// site's policy word once (site.go) and goes to the function of the mode
// it decodes to: tryInvisRead (readset.go), tryBiasRead (bias.go), or,
// like every write and every fallback, step (4) in acquireWord.
func (tx *Tx) lockFor(o *Object, slot int32, kind slotKind, lockID, site int32, write bool) {
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
		// front of queue, U flag, structural duel detection.
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
	// The per-site acquire count is sampled 1-in-(profMask+1): the ticket
	// offsets the sampling phase per transaction, so short transactions
	// contribute in aggregate even though any single one usually skips.
	// All other site counters are slow-path-only and stay exact.
	if (tx.n.Acquire+tx.ticket)&tx.rt.profMask == 0 {
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
// panics with *Aborted on defeat). An installed queue normally forces the
// slow path, but a promoted site under bounded overtaking (promo.go) may
// CAS past it — only writes ask, because the dispatcher turned every
// fresh read of a promoted site into one, and the short-circuit keeps the
// policy load off the word's uncontended path. A biased word admits reads
// through the shared CAS always, and writes in production — the
// write-through of bias.go: W lands beside the marker and drainWriteThru
// takes care of the published reader slots. A harness run keeps writers
// on the revocation path, which is the machinery schedules should
// explore.
func (tx *Tx) acquireWord(addr *uint64, w uint64, site int32, write bool) grantVia {
	tx.rt.yield(PointFastCAS)
	if wordQueueID(w) == 0 || (wordIsBiased(w) && (!write || tx.rt.hooks == nil)) ||
		(write && tx.overtakeOK(site)) {
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

// fieldAccess funnels every field access through the synchronization
// rules of paper Table 1 and returns true if the raw slot may be touched
// directly (new instance, final field, or thread-local memory).
func (tx *Tx) fieldAccess(o *Object, f FieldID, kind slotKind, write bool) int32 {
	m := &o.class.fields[f]
	if m.kind != kindOf(kind) {
		panic(fmt.Sprintf("stm: field %s.%s is %v, accessed as %v",
			o.class.name, m.name, m.kind, kindOf(kind)))
	}
	if m.final {
		// The final check must precede the thread-local branch: a final
		// field is immutable after construction on EVERY object. A local
		// object is born committed (locks == unallocSlab), so any write
		// to its final fields is post-construction and must panic the
		// same way it does on a shared object — it used to be silently
		// permitted (and undo-logged) via the local fast path.
		if write && o.locks.Load() != nil {
			panic(fmt.Sprintf("stm: write to final field %s.%s outside construction",
				o.class.name, m.name))
		}
		return m.idx
	}
	if o.local {
		if write {
			tx.captureUndo(o, m.idx, kind)
		}
		return m.idx
	}
	if o.locks.Load() == nil {
		// Step (1): new in the current transaction.
		tx.n.CheckNew++
		return m.idx
	}
	tx.lockFor(o, m.idx, kind, m.lockID, m.siteID, write)
	return m.idx
}

// elemAccess is the array-element counterpart of fieldAccess.
func (tx *Tx) elemAccess(o *Object, i int, kind slotKind, write bool) {
	if !o.class.isArray {
		panic("stm: element access on non-array " + o.class.name)
	}
	if o.class.elem != kindOf(kind) {
		panic(fmt.Sprintf("stm: array of %v accessed as %v", o.class.elem, kindOf(kind)))
	}
	// Bounds must be validated before any lock-slot or undo-slot use: the
	// lock slab is indexed by the element index, so an out-of-range index
	// used to panic deep inside slab.words with an opaque Go "index out
	// of range" — and a negative index on the local/new paths could
	// record a corrupt undo slot before the storage access panicked.
	if n := o.Len(); i < 0 || i >= n {
		panic(fmt.Sprintf("stm: index %d out of range for array %s of length %d",
			i, o.class.name, n))
	}
	if o.local {
		if write {
			tx.captureUndo(o, int32(i), kind)
		}
		return
	}
	if o.locks.Load() == nil {
		tx.n.CheckNew++
		return
	}
	tx.lockFor(o, int32(i), kind, int32(i), o.class.siteID, write)
}

func kindOf(s slotKind) Kind {
	switch s {
	case slotWord:
		return KindWord
	case slotRef:
		return KindRef
	default:
		return KindStr
	}
}

// ReadWord reads a word field under the SBD synchronization rules.
func (tx *Tx) ReadWord(o *Object, f FieldID) uint64 {
	idx := tx.fieldAccess(o, f, slotWord, false)
	if tx.invisHit {
		// The access went invisible: the value was loaded atomically
		// inside tryInvisRead's double-check — the plain re-read below
		// could race a concurrent writer's store.
		tx.invisHit = false
		return tx.invisVal
	}
	return o.words[idx]
}

// WriteWord writes a word field.
func (tx *Tx) WriteWord(o *Object, f FieldID, v uint64) {
	idx := tx.fieldAccess(o, f, slotWord, true)
	storeWord(o, idx, v)
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
	idx := tx.fieldAccess(o, f, slotRef, false)
	return o.refs[idx]
}

// WriteRef writes a reference field.
func (tx *Tx) WriteRef(o *Object, f FieldID, v *Object) {
	idx := tx.fieldAccess(o, f, slotRef, true)
	o.refs[idx] = v
}

// ReadStr reads a string field.
func (tx *Tx) ReadStr(o *Object, f FieldID) string {
	idx := tx.fieldAccess(o, f, slotStr, false)
	return o.strs[idx]
}

// WriteStr writes a string field.
func (tx *Tx) WriteStr(o *Object, f FieldID, v string) {
	idx := tx.fieldAccess(o, f, slotStr, true)
	o.strs[idx] = v
}

// ReadWordForWrite reads a word field while declaring write intent: the
// lock is acquired in write mode up front, so a later write to the same
// field upgrades for free and can never lose a dueling write-upgrade.
// Use it for the read half of a read-modify-write; the declared intent
// skips the adaptive promoter's learning phase entirely.
func (tx *Tx) ReadWordForWrite(o *Object, f FieldID) uint64 {
	tx.n.IntentHints++
	idx := tx.fieldAccess(o, f, slotWord, true)
	return o.words[idx]
}

// ReadRefForWrite reads a reference field with declared write intent.
func (tx *Tx) ReadRefForWrite(o *Object, f FieldID) *Object {
	tx.n.IntentHints++
	idx := tx.fieldAccess(o, f, slotRef, true)
	return o.refs[idx]
}

// ReadStrForWrite reads a string field with declared write intent.
func (tx *Tx) ReadStrForWrite(o *Object, f FieldID) string {
	tx.n.IntentHints++
	idx := tx.fieldAccess(o, f, slotStr, true)
	return o.strs[idx]
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
	tx.elemAccess(o, i, slotWord, false)
	if tx.invisHit {
		tx.invisHit = false
		return tx.invisVal
	}
	return o.words[i]
}

// ReadElemForWrite reads word element i of an array with declared write
// intent (see ReadWordForWrite).
func (tx *Tx) ReadElemForWrite(o *Object, i int) uint64 {
	tx.n.IntentHints++
	tx.elemAccess(o, i, slotWord, true)
	return o.words[i]
}

// WriteElem writes word element i of an array.
func (tx *Tx) WriteElem(o *Object, i int, v uint64) {
	tx.elemAccess(o, i, slotWord, true)
	storeWord(o, int32(i), v)
}

// ReadElemRef reads reference element i of an array.
func (tx *Tx) ReadElemRef(o *Object, i int) *Object {
	tx.elemAccess(o, i, slotRef, false)
	return o.refs[i]
}

// WriteElemRef writes reference element i of an array.
func (tx *Tx) WriteElemRef(o *Object, i int, v *Object) {
	tx.elemAccess(o, i, slotRef, true)
	o.refs[i] = v
}

// ReadElemStr reads string element i of an array.
func (tx *Tx) ReadElemStr(o *Object, i int) string {
	tx.elemAccess(o, i, slotStr, false)
	return o.strs[i]
}

// WriteElemStr writes string element i of an array.
func (tx *Tx) WriteElemStr(o *Object, i int, v string) {
	tx.elemAccess(o, i, slotStr, true)
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
func (tx *Tx) releaseLocks() { tx.releaseLockEntries(0) }

// releaseLockEntries releases every lock-log entry from mark on and
// truncates the log back to mark, waking any queues that installed
// themselves while the words were held. Commit-time version stamping
// applies only once the transaction has ended; a mid-transaction release
// (the batch fast-path rollback) leaves versions untouched — the
// released words' committed values were never modified.
func (tx *Tx) releaseLockEntries(mark int) {
	if tx.ended {
		// Commit path: every written word's new version is public before
		// the first clearing CAS below, so a section that sees any word of
		// this commit unlocked also sees the clock moved (revalidate) and
		// every version stamped (readset.go). Reset reaches here with
		// ended == false and must NOT stamp: the undo log restored the old
		// value, so the committed version never changed.
		for i := mark; i < len(tx.lockLog); i++ {
			tx.stampVersion(&tx.lockLog[i])
		}
	}
	wakes := tx.wakeScratch[:0]
	for i := mark; i < len(tx.lockLog); i++ {
		e := &tx.lockLog[i]
		addr := &e.slab.words[e.lockID]
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
	tx.wakeScratch = wakes[:0]
	tx.lockLog = tx.lockLog[:mark]
}

// accountMemory accumulates the Table 8 components of this attempt into
// the transaction-local accumulators (each attempt — commit or reset —
// counts as one measured transaction, so the count is Commits + Aborts).
func (tx *Tx) accountMemory() {
	tx.n.RWSetBytes += uint64(len(tx.lockLog))*16 + uint64(len(tx.undo))*40 +
		uint64(len(tx.readSet))*24
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
	for _, r := range tx.resources {
		r.Commit()
	}
	for _, o := range tx.initLog {
		o.locks.Store(unallocSlab)
	}
	tx.releaseLocks()
	if len(tx.biasLog) != 0 {
		tx.releaseBias()
	}
	tx.releaseInevitable()
	// Take ownership of the deferred callbacks before clearLogs zeroes
	// the backing array (Commit is terminal, so losing the capacity here
	// is free; the [:0] reuse in clearLogs benefits the Reset path).
	deferred := tx.onCommit
	tx.onCommit = nil
	tx.clearLogs()
	tx.n.Commits++
	if tx.rt.wantsEvent(EvCommit) {
		tx.rt.event(Event{Kind: EvCommit, TxID: tx.vid, Ticket: tx.ticket})
	}
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
// transaction keeps its virtual ID, its slot lease, and its start
// ticket (so it ages toward being the oldest, which guarantees
// progress).
func (tx *Tx) Reset() {
	if tx.ended {
		panic("stm: Reset on ended transaction")
	}
	if tx.inevitable {
		// Inevitability promises no rollback: the runtime never chooses
		// an inevitable transaction as a victim, so reaching this point
		// is a programming error.
		panic("stm: Reset on an inevitable transaction")
	}
	tx.accountMemory()
	for i := len(tx.resources) - 1; i >= 0; i-- {
		tx.resources[i].Rollback()
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
	}
	tx.releaseLocks()
	if len(tx.biasLog) != 0 {
		tx.releaseBias()
	}
	tx.clearLogs()
	// Promotions of the aborted attempt are dropped unscored: the attempt
	// never reached commit, so whether the promotion would have been
	// written is unknown.
	tx.promoLog = tx.promoLog[:0]
	tx.victim.Store(false)
	// Charged now, not through tx.n: a section that keeps retrying must
	// show its aborts (AbortRate +Inf is how a livelock reads).
	atomic.AddUint64(&tx.rt.stats.c.Aborts, 1)
	if tx.rt.wantsEvent(EvReset) {
		tx.rt.event(Event{Kind: EvReset, TxID: tx.vid, Ticket: tx.ticket})
	}
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
