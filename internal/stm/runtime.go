package stm

import (
	"io"
	"sync"
	"sync/atomic"
)

// Runtime owns the lock-word slot pool, the virtual-ID allocator, the
// queue table, the deadlock detector, and the statistics counters. One
// Runtime corresponds to one SBD program.
//
// Identity is split from visibility: a transaction's name is its
// unbounded virtual ID (vid), drawn from per-Tx lease blocks over the
// central vidNext counter, while the 56 lock-word bits are slot leases
// a section acquires on its first lock acquisition and returns at
// commit/abort. Begin never blocks; only >MaxTxns sections holding
// locks simultaneously wait (in the slot pool's overflow tier).
type Runtime struct {
	slots  *slotPool
	ticket atomic.Uint64
	// vidNext is the central virtual-ID allocator; Tx objects carve
	// lease blocks (vidLeaseBlock IDs at a time) off it so the counter
	// is touched once per block, not once per Begin.
	vidNext atomic.Uint64
	det     *detector
	stats   Stats
	// txBySlot maps a leased lock-word slot to the section holding it;
	// the invariant sweeps resolve holder bits through it. nil for
	// unleased slots. Maintained only when trackSlots is set — nothing
	// on the production hot path reads it, and the two fenced pointer
	// stores per transaction are measurable on the uncontended gate.
	txBySlot [MaxTxns]atomic.Pointer[Tx]
	// trackSlots enables txBySlot maintenance: set when a schedule
	// harness or the debug log is attached (the contexts that run
	// invariant sweeps). The sweeps skip holder-resolution checks when
	// unset.
	trackSlots bool
	maxSlots   int
	debug      *debugLog
	// hooks, when non-nil, routes slow-path decision points to a
	// schedule-exploration harness (internal/sched). nil in production.
	hooks Hooks
	// sites is the per-lock-site table (site.go): each cell holds the
	// site's policy word — which of the four read modes serves it, and
	// the scores behind that choice — and its contention counters, each
	// charged where its event happens (profile.go).
	sites siteTable
	// bias holds the distributed reader-slot lines biased readers
	// publish visibility through (bias.go).
	bias biasTable
	// vc is the global version clock commit-time validation of invisible
	// reads is anchored to (clock.go, readset.go).
	vc versionClock
	// profMask gates the sampled per-site acquire counter: a lock acquire
	// is charged to its site when (Tx.n.Acquire+ticket)&profMask == 0.
	profMask uint64
	// waiterSlots holds the reusable per-slot waiter objects (see
	// Tx.slowAcquire): the entry is exclusively owned by the section
	// holding the slot, so a slow-path block allocates nothing in
	// steady state.
	waiterSlots [MaxTxns]*waiter
	// txPool recycles Tx objects (and their log capacities) across
	// transactions. The per-P caches double as the per-thread lease
	// caches for virtual IDs: a recycled Tx usually still holds part of
	// its vid lease block.
	txPool sync.Pool
	// rec is the protocol-event flight recorder; nil when disabled via
	// Options.RecorderSize < 0.
	rec *FlightRecorder
	// dumpOnDeadlock, when non-nil, receives a flight-recorder dump each
	// time the detector resolves a deadlock.
	dumpOnDeadlock io.Writer
	// inev is the single inevitability token (§3.4): at most one
	// transaction can be inevitable at any moment.
	inev chan struct{}
}

// vidLeaseBlock is the number of virtual IDs a Tx leases from the
// central counter at once. Under a harness the block size is 1 so vid
// assignment order is a pure function of the schedule (replays stay
// deterministic even if the object pool's contents differ run to run).
const vidLeaseBlock = 64

// Options configures a Runtime.
type Options struct {
	// MaxConcurrentTxns caps the number of lock-word slots handed out —
	// the number of sections that can hold locks simultaneously, not
	// the number of live transactions (Begin never blocks on it).
	// 0 means MaxTxns (56). Lowering it below the thread count
	// reproduces the Tomcat-at-32-client+32-server-threads saturation
	// the paper reports (§5.4) once those threads contend on locks.
	MaxConcurrentTxns int
	// DebugLog, when non-nil, enables the §6 debug mode: one line per
	// blocked thread, grant, deadlock resolution, and dueling upgrade.
	DebugLog io.Writer
	// Hooks, when non-nil, attaches a schedule-exploration and
	// fault-injection harness to the runtime's slow paths (see
	// hooks.go). Production runtimes leave it nil; the only residual
	// cost is one nil check per instrumented slow-path site.
	Hooks Hooks
	// RecorderSize sizes the protocol-event flight recorder (rounded up
	// to a power of two). 0 means DefaultRecorderSize; negative disables
	// the recorder entirely.
	RecorderSize int
	// RecorderKinds selects which event kinds the flight recorder
	// retains. nil means the contention-path default: blocked, granted,
	// abort-waiter, deadlock, duel, spurious-wake, delayed-grant,
	// inev-release and the slot-pool overflow events — everything except
	// the per-transaction lifecycle events, which would tax the
	// uncontended fast path.
	RecorderKinds []EventKind
	// DeadlockDump, when non-nil, receives a flight-recorder dump every
	// time the deadlock detector resolves a cycle — the protocol history
	// leading up to the deadlock, captured at the moment it happened.
	DeadlockDump io.Writer
	// ProfileSampleRate is the sampling period of the per-site acquire
	// counter and of per-site block time: one in every ProfileSampleRate
	// lock acquires (and parked blocks) is charged to its site, scaled
	// up by the period, so the reported totals stay unbiased estimates.
	// 0 means DefaultProfileSampleRate; 1 counts every acquire and block
	// exactly; other values are rounded up to a power of two. The other
	// contention counters (contended, CAS failures, upgrades, deadlocks)
	// are slow-path-only and always exact.
	ProfileSampleRate int
}

// NewRuntime creates a runtime with default options.
func NewRuntime() *Runtime { return NewRuntimeOpts(Options{}) }

// NewRuntimeOpts creates a runtime with the given options.
func NewRuntimeOpts(opts Options) *Runtime {
	n := opts.MaxConcurrentTxns
	if n <= 0 || n > MaxTxns {
		n = MaxTxns
	}
	rt := &Runtime{
		slots:    newSlotPool(n),
		det:      newDetector(),
		maxSlots: n,
		inev:     make(chan struct{}, 1),
	}
	rt.inev <- struct{}{}
	rt.hooks = opts.Hooks
	if opts.RecorderSize >= 0 {
		rt.rec = newFlightRecorder(opts.RecorderSize, opts.RecorderKinds)
	}
	rt.dumpOnDeadlock = opts.DeadlockDump
	rate := opts.ProfileSampleRate
	if rate <= 0 {
		rate = DefaultProfileSampleRate
	}
	pow := 1
	for pow < rate {
		pow <<= 1
	}
	rt.profMask = uint64(pow - 1)
	rt.slots.rt = rt
	rt.det.rt = rt
	rt.vc.init()
	if opts.DebugLog != nil {
		rt.debug = &debugLog{w: opts.DebugLog}
		rt.det.debug = rt.debug
	}
	rt.trackSlots = rt.hooks != nil || rt.debug != nil
	return rt
}

// MaxConcurrentTxns returns the configured lock-word slot limit: the
// number of sections that can hold locks simultaneously.
func (rt *Runtime) MaxConcurrentTxns() int { return rt.maxSlots }

// Stats returns the runtime's statistics counters.
func (rt *Runtime) Stats() *Stats { return &rt.stats }

// Profile returns the runtime's per-lock-site contention profile.
func (rt *Runtime) Profile() *Profile { return (*Profile)(&rt.sites) }

// Recorder returns the protocol-event flight recorder, or nil when it
// was disabled with Options.RecorderSize < 0.
func (rt *Runtime) Recorder() *FlightRecorder { return rt.rec }

// Begin starts a new transaction. It never blocks: identity is a
// virtual ID from an unbounded counter, and the bounded lock-word slot
// is leased lazily on the section's first lock acquisition (txn.go).
// The returned Tx is recycled through a pool after Commit or
// AbandonAfterReset, so a handle must not be touched after either.
func (rt *Runtime) Begin() *Tx {
	tx, _ := rt.txPool.Get().(*Tx)
	if tx == nil {
		tx = &Tx{rt: rt}
	}
	tx.vid = rt.nextVID(tx)
	tx.slot = -1
	tx.mask = 0
	tx.ticket = rt.ticket.Add(1)
	tx.ended = false
	tx.inevitable = false
	// An atomic bool store is a locked exchange on amd64; a recycled Tx
	// is almost never a stale victim, so guard the reset with a plain
	// load instead of paying the fence unconditionally.
	if tx.victim.Load() {
		tx.victim.Store(false)
	}
	// Backoff state is per-transaction: a fresh transaction starts with a
	// zero retry streak and reseeds its PRNG lazily from the new ticket.
	tx.retries, tx.rng = 0, 0
	// noInvis deliberately survives Reset (the replay of an aborted
	// section must stay visible) but not reuse for a new section.
	tx.noInvis = false
	// batchNoSort is a per-section test switch; never leak it through
	// the pool into an unrelated section.
	tx.batchNoSort = false
	// Guard the Event construction, not just its delivery: with the
	// default recorder mask, lifecycle events are unwanted and the guard
	// lets the compiler drop the struct build from the fast path.
	if rt.wantsEvent(EvBegin) {
		rt.event(Event{Kind: EvBegin, TxID: tx.vid, Ticket: tx.ticket})
	}
	return tx
}

// nextVID returns the next virtual ID from the Tx's lease block,
// refilling the block from the central counter when it is spent.
func (rt *Runtime) nextVID(tx *Tx) int {
	if tx.vidNext == tx.vidEnd {
		block := uint64(vidLeaseBlock)
		if rt.hooks != nil {
			block = 1
		}
		end := rt.vidNext.Add(block)
		tx.vidNext, tx.vidEnd = end-block, end
	}
	v := tx.vidNext
	tx.vidNext++
	return int(v)
}

// acquireSlot leases a lock-word slot for tx, blocking in the overflow
// tier when all slots are held by other sections. Called from the first
// lock acquisition of a section (and from BecomeInevitable, so the slot
// is ordered before the inevitability token).
func (rt *Runtime) acquireSlot(tx *Tx) {
	slot, _ := rt.slots.acquire(tx)
	tx.slot = slot
	tx.mask = txMask(slot)
	if rt.trackSlots {
		rt.txBySlot[slot].Store(tx)
	}
}

// releaseSlot returns tx's slot lease to the pool (possibly handing it
// directly to an overflow-tier waiter). The caller must have released
// all lock words first.
func (rt *Runtime) releaseSlot(tx *Tx) {
	slot := tx.slot
	tx.slot = -1
	tx.mask = 0
	if rt.trackSlots {
		rt.txBySlot[slot].Store(nil)
	}
	rt.slots.release(slot)
	if rt.wantsEvent(EvSlotRelease) {
		rt.event(Event{Kind: EvSlotRelease, TxID: tx.vid, OtherID: slot})
	}
}

// endTx retires a finished transaction: releases its slot lease if it
// holds one and recycles the Tx object.
func (rt *Runtime) endTx(tx *Tx) {
	if tx.slot >= 0 {
		rt.releaseSlot(tx)
	}
	rt.txPool.Put(tx)
}

// LeasedSlots returns the number of lock-word slots currently out on
// lease (sections holding or acquiring locks).
func (rt *Runtime) LeasedSlots() int { return rt.maxSlots - rt.slots.available() }

// SlotWaiters returns the number of sections parked in the slot pool's
// overflow tier.
func (rt *Runtime) SlotWaiters() int { return rt.slots.queued() }
