package stm

// Schedule-exploration hooks. The STM's correctness-critical behavior
// lives in its slow paths — lock-word CAS loops, the fair wait queues,
// the dreadlocks detector, the slot pool — which a single-core container
// exercises only when interleavings are forced. The hooks below expose
// every such decision point to an external harness (internal/sched)
// that serializes goroutines deterministically and injects faults.
//
// The default is a nil Hooks. This file is the only one that reads
// rt.hooks: every instrumented site calls one of the dispatch helpers
// below, each one predictable `rt.hooks != nil` branch, so the
// production fast path is unchanged and the slow path is the same code
// with or without a harness (`make one-path` checks both).

// YieldPoint identifies one instrumented slow-path location.
type YieldPoint uint8

const (
	// PointFastCAS is the fast-path lock acquisition CAS (Figure 5
	// step 4) in Tx.lockFor.
	PointFastCAS YieldPoint = iota
	// PointSlowEnter is the entry of Tx.slowAcquire, before the
	// detector mutex is taken.
	PointSlowEnter
	// PointRecheckCAS is the queue-bypass re-check CAS inside
	// slowAcquire.
	PointRecheckCAS
	// PointInstallCAS is the CAS publishing a queue ID into a lock word.
	PointInstallCAS
	// PointUninstallCAS is the CAS clearing a queue ID from a lock word.
	PointUninstallCAS
	// PointGrantCAS is the CAS in grantLocked handing a lock to a
	// queue-head waiter.
	PointGrantCAS
	// PointReleaseCAS is the CAS in Tx.releaseLocks clearing the
	// transaction's bit.
	PointReleaseCAS
	// PointWakeQueue is the entry of Runtime.wakeQueue, between a
	// release CAS and the grant scan it triggers.
	PointWakeQueue
	// PointParked marks a waiter parking on (Block) or resuming from
	// (Unblock) its queue channel.
	PointParked
	// PointSlotWait marks a section parking on (Block) or resuming from
	// (Unblock) the exhausted lock-word slot pool's overflow tier.
	PointSlotWait
	// PointSlotPoolCAS is a CAS on the slot pool's free-bit mask.
	PointSlotPoolCAS
	// PointInevWait marks BecomeInevitable parking on (Block) or
	// resuming from (Unblock) the inevitability token.
	PointInevWait
	// PointBiasPublish covers the read-bias path (bias.go): the CAS
	// installing the bias marker, and the yield between a reader's slot
	// publish and its marker verify — the window a revoking writer
	// races against.
	PointBiasPublish
	// PointVersionStamp is the yield before a committing writer stamps a
	// written word's version (Tx.stampVersion), between its value store
	// and the release CAS — the window an invisible reader's validation
	// races against.
	PointVersionStamp
	// PointValidate is the yield at the top of commit-time read-set
	// validation (Tx.validateReads): a writer scheduled here commits
	// between an invisible read and its validation, forcing a
	// validation abort.
	PointValidate
	// PointSpin is one round of a bounded wait loop — spin-before-enqueue
	// and the write-through drain (Runtime.spinWait) — and the CAS a
	// spinning or retracting writer makes on the lock word.
	PointSpin
)

var pointNames = [...]string{
	PointFastCAS:      "fast-cas",
	PointSlowEnter:    "slow-enter",
	PointRecheckCAS:   "recheck-cas",
	PointInstallCAS:   "install-cas",
	PointUninstallCAS: "uninstall-cas",
	PointGrantCAS:     "grant-cas",
	PointReleaseCAS:   "release-cas",
	PointWakeQueue:    "wake-queue",
	PointParked:       "parked",
	PointSlotWait:     "slot-wait",
	PointSlotPoolCAS:  "slotpool-cas",
	PointInevWait:     "inev-wait",
	PointBiasPublish:  "bias-publish",
	PointVersionStamp: "version-stamp",
	PointValidate:     "validate",
	PointSpin:         "spin",
}

func (p YieldPoint) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return "point?"
}

// EventKind classifies protocol events reported through Hooks.Event and
// kept by the flight recorder. Every kind marks contention: a section
// parks, is granted, is aborted, a deadlock is resolved, a slot is waited
// for or handed over, a bias is revoked, the inevitability token is
// returned, or a validation fails. The uncontended path emits none; what
// it does is counted (Stats, Profile), not recorded.
type EventKind uint8

const (
	// EvBlocked: a transaction enqueued on a lock (TxID, Addr, Write,
	// Upgrader).
	EvBlocked EventKind = iota
	// EvGranted: a queued transaction was handed the lock (TxID, Addr,
	// Write).
	EvGranted
	// EvAbortWaiter: a queued transaction was aborted as a deadlock
	// victim (TxID, Addr).
	EvAbortWaiter
	// EvDeadlock: the detector resolved a cycle — a dueling write-upgrade
	// is a two-member one (VictimID; CycleIDs and CycleTickets parallel;
	// CycleInev marks inevitable members).
	EvDeadlock
	// EvInevRelease: the inevitability token was returned (TxID).
	EvInevRelease
	// EvBiasRevoke: a writer replaced the bias marker of a lock word
	// with an installed wait queue (TxID, Addr, QID).
	EvBiasRevoke
	// EvSlotWait: a section parked in the slot pool's overflow tier
	// because all lock-word slots are leased (TxID = transaction ID).
	EvSlotWait
	// EvSlotGrant: a released slot was handed directly to a queued
	// section (TxID = recipient's transaction ID, OtherID = slot). Emitted
	// synchronously by the releaser, before the recipient resumes.
	EvSlotGrant
	// EvValidationAbort: commit-time read-set validation failed and the
	// transaction unwound for replay (TxID, Ticket).
	EvValidationAbort
)

var eventNames = [...]string{
	EvBlocked:         "blocked",
	EvGranted:         "granted",
	EvAbortWaiter:     "abort-waiter",
	EvDeadlock:        "deadlock",
	EvInevRelease:     "inev-release",
	EvBiasRevoke:      "bias-revoke",
	EvSlotWait:        "slot-wait",
	EvSlotGrant:       "slot-grant",
	EvValidationAbort: "validation-abort",
}

func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return "event?"
}

// Event is one protocol event. Queue events are emitted synchronously
// under the detector mutex, so an Event handler must not call back into
// the runtime or block on anything a transaction could hold.
type Event struct {
	Kind     EventKind
	TxID     int
	Ticket   uint64
	OtherID  int     // EvSlotGrant: the slot
	Addr     *uint64 // the lock word involved, when applicable
	QID      int
	Write    bool
	Upgrader bool
	VictimID int
	// Deadlock cycle description (parallel slices). The slices are
	// owned by the callee after the call returns.
	CycleIDs     []int
	CycleTickets []uint64
	CycleInev    []bool
}

// Hooks is the schedule-exploration interface. All methods are invoked
// from the goroutine executing the instrumented operation. A Hooks
// implementation must be safe for concurrent use.
type Hooks interface {
	// Yield marks a preemption opportunity. It is never called while
	// the detector mutex is held, so an implementation may park the
	// calling goroutine.
	Yield(p YieldPoint)
	// Block announces that the caller is about to park on a runtime
	// primitive (queue channel, slot-pool handoff, inevitability token) and
	// will not run until a matching wake event. It must not park; it
	// may be called with runtime-internal mutexes held. Every wake is
	// announced before it is delivered: its Event precedes the channel
	// send, and a waiter woken before its Block does not park.
	Block(p YieldPoint)
	// Unblock announces that the caller resumed from a Block. It may
	// park the calling goroutine (to re-serialize it into a schedule).
	Unblock(p YieldPoint)
	// FailCAS reports whether the CAS at p should be forced to fail
	// (fault injection). Called immediately before the hardware CAS;
	// may run under the detector mutex, so it must not park.
	FailCAS(p YieldPoint) bool
	// Event reports a protocol event, the same one the flight recorder
	// keeps: a contention event (EventKind), never an uncontended begin,
	// access or commit. Queue events run under the detector mutex; the
	// handler must not block or re-enter the STM.
	Event(ev Event)
}

// yield, block, unblock, failCAS, event: the nil-guarded dispatch
// helpers.

// yield yields at p under a harness and reports whether it did, which
// a wait loop uses to replace its production round (a reschedule or a
// sleep) with the yield (Runtime.spinWait).
func (rt *Runtime) yield(p YieldPoint) bool {
	if rt.hooks != nil {
		rt.hooks.Yield(p)
		return true
	}
	return false
}

func (rt *Runtime) block(p YieldPoint) {
	if rt.hooks != nil {
		rt.hooks.Block(p)
	}
}

func (rt *Runtime) unblock(p YieldPoint) {
	if rt.hooks != nil {
		rt.hooks.Unblock(p)
	}
}

// failCAS reports whether the harness forces the CAS at p to fail.
func (rt *Runtime) failCAS(p YieldPoint) bool {
	return rt.hooks != nil && rt.hooks.FailCAS(p)
}

// event records ev in the flight recorder and reports it to the
// harness, if one is attached.
func (rt *Runtime) event(ev Event) {
	rt.rec.record(&ev)
	if rt.hooks != nil {
		rt.hooks.Event(ev)
	}
}

// casWord performs the lock-word CAS at the given yield point, with
// fault injection: under a harness, FailCAS may force the CAS to report
// failure without attempting it, driving the caller's retry/slow path.
// Every lock-word CAS in the runtime funnels through here.
func (rt *Runtime) casWord(addr *uint64, old, new uint64, p YieldPoint) bool {
	return !rt.failCAS(p) && casw(addr, old, new)
}
