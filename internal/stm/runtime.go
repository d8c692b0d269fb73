package stm

import (
	"sync"
	"sync/atomic"
)

// Runtime owns the lock-word slot pool, the start-ticket counter, the
// queue table, the deadlock detector, and the statistics counters. One
// Runtime corresponds to one SBD program.
//
// Identity is split from visibility: a transaction's name is its
// unbounded start ticket, drawn from the central ticket counter, while
// the 56 lock-word bits are slot leases a section acquires on its first
// lock acquisition and returns at commit/abort. Begin never blocks;
// only >MaxTxns sections holding locks simultaneously wait (in the slot
// pool's overflow tier).
type Runtime struct {
	slots *slotPool
	// ticket hands out start tickets, which are also transaction IDs.
	ticket atomic.Uint64
	det    *detector
	stats  Stats
	// waiterSlots holds the reusable per-slot waiter objects (see
	// Tx.slowAcquire): the entry is exclusively owned by the section
	// holding the slot, so a slow-path block allocates nothing in
	// steady state. Its slow-path-only words also keep the counters'
	// cache lines, which every commit adds into, apart from hooks and
	// sites, which every access reads.
	waiterSlots [MaxTxns]*waiter
	maxSlots    int
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
	// txPool recycles Tx objects (and their log capacities) across
	// transactions.
	txPool sync.Pool
	// rec is the protocol-event flight recorder (recorder.go).
	rec *FlightRecorder
	// inev is the single inevitability token (§3.4): at most one
	// transaction can be inevitable at any moment.
	inev chan struct{}
}

// Options configures a Runtime.
type Options struct {
	// MaxConcurrentTxns caps the number of lock-word slots handed out —
	// the number of sections that can hold locks simultaneously, not
	// the number of live transactions (Begin never blocks on it).
	// 0 means MaxTxns (56). Lowering it below the thread count
	// reproduces the Tomcat-at-32-client+32-server-threads saturation
	// the paper reports (§5.4) once those threads contend on locks.
	MaxConcurrentTxns int
	// Hooks, when non-nil, attaches a schedule-exploration and
	// fault-injection harness to the runtime's slow paths (see
	// hooks.go). Production runtimes leave it nil; the only residual
	// cost is one nil check per instrumented slow-path site.
	Hooks Hooks
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
		maxSlots: n,
		hooks:    opts.Hooks,
		inev:     make(chan struct{}, 1),
		rec:      newFlightRecorder(recorderSize),
	}
	rt.slots = newSlotPool(rt, n)
	rt.det = newDetector(rt)
	rt.inev <- struct{}{}
	rt.vc.init()
	return rt
}

// MaxConcurrentTxns returns the configured lock-word slot limit: the
// number of sections that can hold locks simultaneously.
func (rt *Runtime) MaxConcurrentTxns() int { return rt.maxSlots }

// Stats returns the runtime's statistics counters.
func (rt *Runtime) Stats() *Stats { return &rt.stats }

// Profile returns the runtime's per-lock-site contention profile.
func (rt *Runtime) Profile() *Profile { return (*Profile)(&rt.sites) }

// Recorder returns the protocol-event flight recorder.
func (rt *Runtime) Recorder() *FlightRecorder { return rt.rec }

// Begin starts a new transaction. It never blocks: identity is the
// start ticket from an unbounded counter, and the bounded lock-word slot
// is leased lazily on the section's first lock acquisition (txn.go).
// The returned Tx is recycled through a pool after Commit or
// AbandonAfterReset, so a handle must not be touched after either.
func (rt *Runtime) Begin() *Tx {
	tx, _ := rt.txPool.Get().(*Tx)
	if tx == nil {
		tx = &Tx{rt: rt}
	}
	tx.ticket = rt.ticket.Add(1)
	tx.slot = -1
	tx.mask = 0
	tx.ended = false
	tx.inevitable = false
	// An atomic bool store is a locked exchange on amd64; a recycled Tx
	// is almost never a stale victim, so guard the reset with a plain
	// load instead of paying the fence unconditionally.
	if tx.victim.Load() {
		tx.victim.Store(false)
	}
	// noInvis and requeued deliberately survive Reset (the replay of an
	// aborted section must stay visible, and re-enqueues quickly) but not
	// reuse for a new section.
	tx.noInvis = false
	tx.requeued = false
	return tx
}

// acquireSlot leases a lock-word slot for tx, blocking in the overflow
// tier when all slots are held by other sections. Called from the first
// lock acquisition of a section (and from BecomeInevitable, so the slot
// is ordered before the inevitability token).
func (rt *Runtime) acquireSlot(tx *Tx) {
	slot, _ := rt.slots.acquire(tx)
	tx.slot = slot
	tx.mask = txMask(slot)
}

// releaseSlot returns tx's slot lease to the pool (possibly handing it
// directly to an overflow-tier waiter). The caller must have released
// all lock words first.
func (rt *Runtime) releaseSlot(tx *Tx) {
	slot := tx.slot
	tx.slot = -1
	tx.mask = 0
	rt.slots.release(slot)
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
