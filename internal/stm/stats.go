package stm

import (
	"math"
	"sync/atomic"
	"unsafe"
)

// StatsSnapshot is the declaration of the runtime's counters: one
// uint64 field per counter, and nothing else. Stats (the shared
// aggregate), Tx.n (the per-transaction block flushed at commit),
// Snapshot, Reset, Sub and the exposition in internal/obs are all
// derived from this list by index, so adding a counter is this one
// field plus the `++` that feeds it.
//
// Every counter reaches Stats through tx.n (tx.n.X++, flushed at Commit
// or AbandonAfterReset) except three added at the event: Aborts and
// Deadlocks, which must show while a section still retries (that is
// how AbortRate reads a livelock as +Inf), and ModeFlips, which
// Runtime.noteSite charges with no transaction at hand.
//
// The tags are the counter's exposition. prom is its Prometheus series
// — a fixed label makes consecutive fields one family — and an empty
// prom keeps the counter out of /metrics: it appears only in the
// /stats JSON, whose keys are the field names. help is the family's
// HELP line. unit:"ns" marks a nanosecond total rendered in seconds.
//
// The counters are the ones the paper's evaluation reports: the
// lock-operation breakdown of Table 7, the synchronization-issue
// columns of Table 9, and the memory-overhead components of Table 8.
type StatsSnapshot struct {
	// Lock-operation effects (Table 7): lazy lock-slab allocations,
	// accesses that found the instance new (locks == nil), accesses that
	// found the lock already held in a sufficient mode, and lock
	// acquire+release pairs (upgrades included).
	Init       uint64 `prom:"sbd_lock_ops_total{op=\"init\"}" help:"Lock operations by effect (paper Table 7)."`
	CheckNew   uint64 `prom:"sbd_lock_ops_total{op=\"check_new\"}"`
	CheckOwned uint64 `prom:"sbd_lock_ops_total{op=\"check_owned\"}"`
	Acquire    uint64 `prom:"sbd_lock_ops_total{op=\"acquire\"}"`

	// Synchronization issues (Table 9).
	Commits    uint64 `prom:"sbd_commits_total" help:"Committed transactions."`
	Aborts     uint64 `prom:"sbd_aborts_total" help:"Aborted transactions."`
	Contended  uint64 `prom:"sbd_contended_acquires_total" help:"Lock acquisitions that had to enqueue."`
	CASFail    uint64 `prom:"sbd_cas_failures_total" help:"Failed lock-word CAS attempts."`
	SlotWaits  uint64 `prom:"sbd_slot_waits_total" help:"Sections that parked waiting for a lock-word slot lease."`
	SlotWaitNs uint64 `prom:"sbd_slot_wait_seconds_total" help:"Time sections spent parked waiting for a lock-word slot lease." unit:"ns"`
	Deadlocks  uint64 `prom:"sbd_deadlocks_total" help:"Deadlock cycles resolved."`
	InevWaits  uint64 `prom:"sbd_inev_waits_total" help:"BecomeInevitable calls that waited for the token."`
	// Injected spurious wake-ups consumed by parked waiters
	// (schedule-exploration fault injection; 0 in production).
	SpuriousWakes uint64 `prom:""`

	// Contention management (promo.go).
	Promotions   uint64 `prom:"sbd_promotions_total" help:"Reads adaptively promoted to write acquisitions."`
	PromoWasted  uint64 `prom:"sbd_promotions_wasted_total" help:"Promotions committed without a write (hint decay)."`
	DuelLosses   uint64 `prom:"sbd_duel_losses_total" help:"Upgrade aborts that boosted a promotion hint."`
	Backoffs     uint64 `prom:"sbd_backoffs_total" help:"Backed-off transaction retries."`
	BackoffSpins uint64 `prom:"sbd_backoff_spins_total" help:"Reschedules spent in retry backoff."`
	SpinAcquires uint64 `prom:"sbd_spin_acquires_total" help:"Slow-path acquisitions resolved by bounded spinning."`

	// Read bias (bias.go). The revoke wait is exact, not sampled.
	BiasGrants       uint64 `prom:"sbd_bias_grants_total" help:"Reads served by the biased reader-slot path."`
	BiasRevokes      uint64 `prom:"sbd_bias_revokes_total" help:"Writer revocations of read-biased lock words."`
	BiasWriteThrus   uint64 `prom:"sbd_bias_write_throughs_total" help:"Writes that went through a bias marker without revoking it."`
	BiasRevokeWaitNs uint64 `prom:"sbd_bias_revoke_wait_seconds_total" help:"Time writers spent draining biased readers." unit:"ns"`

	// Invisible reads (site.go, readset.go). ModeFlips is exact: it
	// counts the policy-word CASes that changed the on bit.
	InvisReads       uint64 `prom:"sbd_invis_reads_total" help:"Reads served by the invisible optimistic tier."`
	ValidationAborts uint64 `prom:"sbd_validation_aborts_total" help:"Commit-time read-set validation failures."`
	ModeFlips        uint64 `prom:"sbd_mode_flips_total" help:"Per-site read-mode threshold crossings (visible<->invisible)."`

	// Compiler-directed fast paths (batch.go, the instrument passes).
	BatchAcquires uint64 `prom:"sbd_batch_acquires_total" help:"Compiler-batched multi-word acquisitions (one per AcquireBatch)."`
	BatchWords    uint64 `prom:"sbd_batch_words_total" help:"Distinct lock words covered by batched acquisitions."`
	IntentHints   uint64 `prom:"sbd_intent_hints_total" help:"Reads carrying compiler-inferred write intent (ReadWordForWrite)."`

	// Memory accounting (Table 8). Byte figures are estimates derived
	// from entry counts, mirroring the paper's "largest contributors"
	// reporting: bytes of lock slabs allocated, then sums over every
	// attempt (Commits + Aborts of them) of R-W set bytes (locks held +
	// old values), undo-log entries, transactional I/O buffer bytes
	// reported by resources, and init-log entries.
	LockBytes   uint64 `prom:""`
	RWSetBytes  uint64 `prom:""`
	UndoEntries uint64 `prom:""`
	BufferBytes uint64 `prom:""`
	InitEntries uint64 `prom:""`
}

// numCounters is the length of the [n]uint64 view every derived
// operation loops over.
const numCounters = int(unsafe.Sizeof(StatsSnapshot{}) / 8)

func (s *StatsSnapshot) words() *[numCounters]uint64 {
	return (*[numCounters]uint64)(unsafe.Pointer(s))
}

// Stats is the runtime's shared aggregate of the counters: the words of
// a StatsSnapshot, only ever touched with atomic operations.
type Stats struct{ c StatsSnapshot }

// Snapshot copies the current counter values.
func (s *Stats) Snapshot() (out StatsSnapshot) {
	src, dst := s.c.words(), out.words()
	for i := range src {
		dst[i] = atomic.LoadUint64(&src[i])
	}
	return out
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	for i := range s.c.words() {
		atomic.StoreUint64(&s.c.words()[i], 0)
	}
}

// Sub returns the delta s - prev, counter-wise. It allows bracketing a
// measured region the way the paper samples per-iteration counters.
func (s StatsSnapshot) Sub(prev StatsSnapshot) StatsSnapshot {
	for i, v := range prev.words() {
		s.words()[i] -= v
	}
	return s
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
