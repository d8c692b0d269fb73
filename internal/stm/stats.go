package stm

import (
	"math"
	"sync/atomic"
)

// Stats aggregates the runtime counters the paper's evaluation reports:
// the lock-operation breakdown of Table 7 (Init / Check New / Check Owned
// / Acquire), the synchronization-issue columns of Table 9 (aborts,
// contended acquires, CAS failures), and the memory-overhead components
// of Table 8 (lock slabs, R-W set, undo/IO buffers, init log).
type Stats struct {
	// Lock-operation effects (Table 7).
	Init       atomic.Uint64 // lock slab allocations (lazy init)
	CheckNew   atomic.Uint64 // accesses that found the instance new (locks == nil)
	CheckOwned atomic.Uint64 // accesses that found the lock already held in a sufficient mode
	Acquire    atomic.Uint64 // lock acquire+release pairs (incl. upgrades)

	// Synchronization issues (Table 9).
	Commits    atomic.Uint64
	Aborts     atomic.Uint64
	Contended  atomic.Uint64 // acquisitions that had to enqueue
	CASFail    atomic.Uint64 // failed lock-word CAS attempts
	SlotWaits  atomic.Uint64 // sections that parked in the slot pool's overflow tier
	SlotWaitNs atomic.Uint64 // total nanoseconds sections spent parked for a lock-word slot
	Deadlocks  atomic.Uint64 // deadlock cycles resolved
	InevWaits  atomic.Uint64 // BecomeInevitable calls that had to wait for the token
	// SpuriousWakes counts injected spurious wake-ups consumed by parked
	// waiters (schedule-exploration fault injection; 0 in production).
	SpuriousWakes atomic.Uint64

	// Contention management (promo.go).
	Promotions   atomic.Uint64 // reads adaptively promoted to write acquisitions
	PromoWasted  atomic.Uint64 // promotions that committed without a write (decayed the hint)
	DuelLosses   atomic.Uint64 // upgrade aborts that boosted a promotion hint
	Backoffs     atomic.Uint64 // RetryBackoff invocations (= backed-off retries)
	BackoffSpins atomic.Uint64 // total reschedules spent in backoff
	SpinAcquires atomic.Uint64 // slow-path acquisitions resolved by spinning, no enqueue

	// Read-bias (bias.go).
	BiasGrants       atomic.Uint64 // reads served by the biased reader-slot path (no shared CAS)
	BiasRevokes      atomic.Uint64 // writer revocations of a read-biased lock word
	BiasWriteThrus   atomic.Uint64 // writes that went through the bias (W beside the marker, no revocation)
	BiasRevokeWaitNs atomic.Uint64 // total nanoseconds writers spent draining biased readers (exact)

	// Invisible reads (site.go, readset.go).
	InvisReads       atomic.Uint64 // reads served invisibly (no shared store at all)
	ValidationAborts atomic.Uint64 // commit-time read-set validation failures
	ModeFlips        atomic.Uint64 // per-site invisible-mode threshold crossings (either direction; exact)

	// Compiler-directed fast paths (batch.go, the instrument passes).
	// BatchAcquires and BatchWords flush together as one packed atomic
	// add (batchPacked: acquires in the low half, words in the high
	// half): a batching transaction then pays exactly one LOCK-prefixed
	// RMW at commit for both counters, not two — measurable on the k=4
	// batch microbenchmark, where a second RMW per transaction eats the
	// per-word saving. When either packed half crosses its spill
	// threshold the flusher drains the packed cell into the wide shared
	// counters below, so totals never overflow; Snapshot sums both.
	BatchAcquires atomic.Uint64 // AcquireBatch calls (one per compiled basic block)
	BatchWords    atomic.Uint64 // distinct lock words covered by those batches
	IntentHints   atomic.Uint64 // ReadXForWrite accesses (declared write intent)
	batchPacked   atomic.Uint64

	// Memory accounting (Table 8). Byte figures are estimates derived
	// from entry counts, mirroring the paper's "largest contributors"
	// reporting.
	LockBytes    atomic.Uint64 // total bytes of lock slabs allocated
	RWSetBytes   atomic.Uint64 // sum over transactions of R-W set bytes (locks held + old values)
	UndoEntries  atomic.Uint64 // total undo-log entries recorded
	BufferBytes  atomic.Uint64 // sum of transactional I/O buffer bytes (reported by resources)
	InitEntries  atomic.Uint64 // total init-log entries (instances to mark UNALLOC)
	TxnsMeasured atomic.Uint64 // transactions contributing to the sums above
}

// batchSpillMask flags either packed half reaching 2^30: far below
// overflow of a uint32 half, yet leaving headroom (one commit's word
// count can never push a half from below the threshold past its 32-bit
// boundary). A flusher whose add sets a flagged bit drains the packed
// cell into the wide counters; concurrent drains are safe — each Swap
// captures a disjoint portion.
const batchSpillMask = 1<<30 | 1<<62

// spillBatchPacked drains the packed batch cell into the wide counters.
func (s *Stats) spillBatchPacked() {
	old := s.batchPacked.Swap(0)
	s.BatchAcquires.Add(old & 0xffffffff)
	s.BatchWords.Add(old >> 32)
}

// StatsSnapshot is an immutable copy of Stats for reporting.
type StatsSnapshot struct {
	Init, CheckNew, CheckOwned, Acquire     uint64
	Commits, Aborts, Contended, CASFail     uint64
	Deadlocks, InevWaits                    uint64
	SlotWaits, SlotWaitNs                   uint64
	SpuriousWakes                           uint64
	Promotions, PromoWasted, DuelLosses     uint64
	Backoffs, BackoffSpins, SpinAcquires    uint64
	BiasGrants, BiasRevokes, BiasWriteThrus uint64
	BiasRevokeWaitNs                        uint64
	InvisReads, ValidationAborts, ModeFlips uint64
	BatchAcquires, BatchWords, IntentHints  uint64
	LockBytes, RWSetBytes, UndoEntries      uint64
	BufferBytes, InitEntries, TxnsMeasured  uint64
}

// Snapshot copies the current counter values. The batch counters sum
// the packed cell's undrained halves into the wide totals.
func (s *Stats) Snapshot() StatsSnapshot {
	packed := s.batchPacked.Load()
	batchAcquires := s.BatchAcquires.Load() + packed&0xffffffff
	batchWords := s.BatchWords.Load() + packed>>32
	return StatsSnapshot{
		Init:             s.Init.Load(),
		CheckNew:         s.CheckNew.Load(),
		CheckOwned:       s.CheckOwned.Load(),
		Acquire:          s.Acquire.Load(),
		Commits:          s.Commits.Load(),
		Aborts:           s.Aborts.Load(),
		Contended:        s.Contended.Load(),
		CASFail:          s.CASFail.Load(),
		SlotWaits:        s.SlotWaits.Load(),
		SlotWaitNs:       s.SlotWaitNs.Load(),
		Deadlocks:        s.Deadlocks.Load(),
		InevWaits:        s.InevWaits.Load(),
		SpuriousWakes:    s.SpuriousWakes.Load(),
		Promotions:       s.Promotions.Load(),
		PromoWasted:      s.PromoWasted.Load(),
		DuelLosses:       s.DuelLosses.Load(),
		Backoffs:         s.Backoffs.Load(),
		BackoffSpins:     s.BackoffSpins.Load(),
		SpinAcquires:     s.SpinAcquires.Load(),
		BiasGrants:       s.BiasGrants.Load(),
		BiasRevokes:      s.BiasRevokes.Load(),
		BiasWriteThrus:   s.BiasWriteThrus.Load(),
		BiasRevokeWaitNs: s.BiasRevokeWaitNs.Load(),
		InvisReads:       s.InvisReads.Load(),
		ValidationAborts: s.ValidationAborts.Load(),
		ModeFlips:        s.ModeFlips.Load(),
		BatchAcquires:    batchAcquires,
		BatchWords:       batchWords,
		IntentHints:      s.IntentHints.Load(),
		LockBytes:        s.LockBytes.Load(),
		RWSetBytes:       s.RWSetBytes.Load(),
		UndoEntries:      s.UndoEntries.Load(),
		BufferBytes:      s.BufferBytes.Load(),
		InitEntries:      s.InitEntries.Load(),
		TxnsMeasured:     s.TxnsMeasured.Load(),
	}
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.Init.Store(0)
	s.CheckNew.Store(0)
	s.CheckOwned.Store(0)
	s.Acquire.Store(0)
	s.Commits.Store(0)
	s.Aborts.Store(0)
	s.Contended.Store(0)
	s.CASFail.Store(0)
	s.SlotWaits.Store(0)
	s.SlotWaitNs.Store(0)
	s.Deadlocks.Store(0)
	s.InevWaits.Store(0)
	s.SpuriousWakes.Store(0)
	s.Promotions.Store(0)
	s.PromoWasted.Store(0)
	s.DuelLosses.Store(0)
	s.Backoffs.Store(0)
	s.BackoffSpins.Store(0)
	s.SpinAcquires.Store(0)
	s.BiasGrants.Store(0)
	s.BiasRevokes.Store(0)
	s.BiasWriteThrus.Store(0)
	s.BiasRevokeWaitNs.Store(0)
	s.InvisReads.Store(0)
	s.ValidationAborts.Store(0)
	s.ModeFlips.Store(0)
	s.BatchAcquires.Store(0)
	s.BatchWords.Store(0)
	s.batchPacked.Store(0)
	s.IntentHints.Store(0)
	s.LockBytes.Store(0)
	s.RWSetBytes.Store(0)
	s.UndoEntries.Store(0)
	s.BufferBytes.Store(0)
	s.InitEntries.Store(0)
	s.TxnsMeasured.Store(0)
}

// Sub returns the delta s - prev, counter-wise. It allows bracketing a
// measured region the way the paper samples per-iteration counters.
func (s StatsSnapshot) Sub(prev StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Init:             s.Init - prev.Init,
		CheckNew:         s.CheckNew - prev.CheckNew,
		CheckOwned:       s.CheckOwned - prev.CheckOwned,
		Acquire:          s.Acquire - prev.Acquire,
		Commits:          s.Commits - prev.Commits,
		Aborts:           s.Aborts - prev.Aborts,
		Contended:        s.Contended - prev.Contended,
		CASFail:          s.CASFail - prev.CASFail,
		SlotWaits:        s.SlotWaits - prev.SlotWaits,
		SlotWaitNs:       s.SlotWaitNs - prev.SlotWaitNs,
		Deadlocks:        s.Deadlocks - prev.Deadlocks,
		InevWaits:        s.InevWaits - prev.InevWaits,
		SpuriousWakes:    s.SpuriousWakes - prev.SpuriousWakes,
		Promotions:       s.Promotions - prev.Promotions,
		PromoWasted:      s.PromoWasted - prev.PromoWasted,
		DuelLosses:       s.DuelLosses - prev.DuelLosses,
		Backoffs:         s.Backoffs - prev.Backoffs,
		BackoffSpins:     s.BackoffSpins - prev.BackoffSpins,
		SpinAcquires:     s.SpinAcquires - prev.SpinAcquires,
		BiasGrants:       s.BiasGrants - prev.BiasGrants,
		BiasRevokes:      s.BiasRevokes - prev.BiasRevokes,
		BiasWriteThrus:   s.BiasWriteThrus - prev.BiasWriteThrus,
		BiasRevokeWaitNs: s.BiasRevokeWaitNs - prev.BiasRevokeWaitNs,
		InvisReads:       s.InvisReads - prev.InvisReads,
		ValidationAborts: s.ValidationAborts - prev.ValidationAborts,
		ModeFlips:        s.ModeFlips - prev.ModeFlips,
		BatchAcquires:    s.BatchAcquires - prev.BatchAcquires,
		BatchWords:       s.BatchWords - prev.BatchWords,
		IntentHints:      s.IntentHints - prev.IntentHints,
		LockBytes:        s.LockBytes - prev.LockBytes,
		RWSetBytes:       s.RWSetBytes - prev.RWSetBytes,
		UndoEntries:      s.UndoEntries - prev.UndoEntries,
		BufferBytes:      s.BufferBytes - prev.BufferBytes,
		InitEntries:      s.InitEntries - prev.InitEntries,
		TxnsMeasured:     s.TxnsMeasured - prev.TxnsMeasured,
	}
}

// AbortRate returns aborts per successful commit (Table 9 column Abr.),
// as a fraction (multiply by 100 for percent). A window with aborts but
// no commits — total livelock, or a snapshot taken mid-retry — returns
// +Inf rather than a misleading 0; only a window with no activity at
// all is rate 0. Render +Inf as "inf" (or "—"), never as a number.
func (s StatsSnapshot) AbortRate() float64 {
	if s.Commits == 0 {
		if s.Aborts == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return float64(s.Aborts) / float64(s.Commits)
}
