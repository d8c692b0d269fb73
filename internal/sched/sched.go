// Package sched is a deterministic schedule-exploration and
// fault-injection harness for the STM runtime.
//
// The paper's correctness story rests on slow-path machinery — the
// lock-word CAS protocol, fair FIFO queues, dreadlocks-style deadlock
// resolution — that real contention on a single-core host exercises
// only by accident. This package makes those interleavings a first-class
// input: worker goroutines run under a cooperative token protocol (at
// most one runs at a time), and at every instrumented yield point a
// seeded policy decides who runs next and which CAS to force to fail.
// Every state a run reaches is one production can reach. The same seed
// replays the identical schedule; a recorded decision list can be
// replayed and greedily shrunk (see Shrink) when a run fails.
//
// The token holder is the only writer of goroutine state. Every wake a
// parked goroutine can observe is announced to the scheduler by its
// stm.Event before it is delivered, so the set of runnable goroutines at
// each decision is a function of the seed alone. A goroutine that
// resumes from a park the scheduler still holds blocked fails the run
// ("unannounced wake") instead of racing the token holder: no code may
// signal a waiter without a grant or an abort.
//
// A scenario worker is one SBD thread (Thread): its sections run on
// core.Thread, the runner every shipped program uses, so an abort, a
// deadlock loss or a failed commit-time validation replays through the
// same code under the harness as in production.
//
// Invariants are checked two ways: structural sweeps through the
// runtime's invariant accessors (stm.CheckInvariants/CheckObjectLocks),
// and online event checkers for FIFO fairness and youngest-victim
// deadlock resolution (see checker.go).
package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stm"
)

// PointWorkload is the yield point used by workload code between
// operations (Scheduler.Step), outside any STM slow path.
const PointWorkload = stm.YieldPoint(200)

type gstate uint8

const (
	gReady   gstate = iota // runnable, waiting for the token
	gRunning               // holds the token
	gBlocked               // parked (STM primitive or barrier), not runnable
	gDone
)

var gstateNames = [...]string{"ready", "running", "blocked", "done"}

// goroutineState is one worker under the scheduler.
type goroutineState struct {
	idx   int
	name  string
	gid   uint64
	state gstate
	token chan struct{} // buffered(1) run-token grant
	// awaitTx, when >= 0, parks the goroutine until that transaction
	// enqueues on a lock (AwaitBlocked).
	awaitTx int
	// awaitSlotTx, when >= 0, parks the goroutine until that transaction
	// enters the slot pool's overflow tier (AwaitSlotBlocked).
	awaitSlotTx int
	barrier     string
	// lastBlock is the yield point of the most recent park; the
	// inevitability token's release wakes the goroutines parked on it.
	lastBlock stm.YieldPoint
}

// Worker is one goroutine of a scenario.
type Worker struct {
	Name string
	Body func()
}

// Every run has the same backstops and sweep rate.
const (
	// maxSteps bounds the number of decisions before the run is failed
	// (livelock backstop).
	maxSteps = 200000
	// runTimeout is the wall-clock watchdog for one Run.
	runTimeout = 30 * time.Second
	// checkEvery is the period, in decisions, of the structural
	// invariant sweep.
	checkEvery = 16
)

// Scheduler serializes a set of worker goroutines at STM yield points
// and implements stm.Hooks. One Scheduler drives one stm.Runtime for
// one Run.
type Scheduler struct {
	pol    Policy
	failed atomic.Bool

	mu    sync.Mutex
	gs    []*goroutineState
	byGID map[uint64]*goroutineState
	// blockedTx maps the ID of a transaction enqueued on a lock queue to
	// the goroutine that emitted its EvBlocked; slotWaitTx does the same
	// for a section parked in the slot pool's overflow tier (EvSlotWait).
	// That goroutine is the waiter: it emits the event under the queue
	// mutex, or just before its channel receive, with no yield point in
	// between. The wake event (EvGranted, EvAbortWaiter, EvSlotGrant)
	// makes it runnable and drops the entry. Transaction IDs are
	// unbounded, so these are maps, not [MaxTxns] arrays.
	blockedTx  map[int]*goroutineState
	slotWaitTx map[int]*goroutineState
	barriers   map[string][]*goroutineState
	nLive      int
	errs       []error
	done       chan error

	rt      *stm.Runtime
	watched []*stm.Object

	check *checker
	cov   Coverage

	decisions []Decision
	steps     int
}

// Coverage counts the protocol paths a run exercised. The scheduler
// counts the fields marked (event) itself; RunScenario reads every other
// field from the runtime's Stats, which count the same things.
type Coverage struct {
	Deadlocks   int // resolved deadlock cycles (Deadlocks)
	Grants      int // queue handoffs (event)
	Blocked     int // enqueues on contended locks (Contended)
	Spins       int // acquisitions won by spin-before-enqueue (SpinAcquires)
	CASFails    int // injected CAS failures (event)
	Promotions  int // adaptive write-intent promotions (Promotions)
	BiasGrants  int // biased reader-slot grants (BiasGrants)
	BiasRevokes int // read-bias revocations by writers (BiasRevokes)
	WriteThrus  int // writes through a bias marker whose drain completed (BiasWriteThrus)
	SlotWaits   int // sections parked in the slot pool's overflow tier (SlotWaits)
	SlotGrants  int // slot leases handed to overflow-tier waiters (event)
	InvisReads  int // invisible optimistic reads (InvisReads)
	ValAborts   int // commit-time read-set validation failures (ValidationAborts)
	Commits     int // committed transactions (Commits)
	Aborts      int // rolled-back attempts (Aborts)
}

func (c Coverage) String() string {
	return fmt.Sprintf("deadlocks=%d grants=%d blocked=%d spins=%d casfail=%d promoted=%d biased=%d revoked=%d writethrus=%d slotwaits=%d slotgrants=%d invis=%d valaborts=%d commits=%d aborts=%d",
		c.Deadlocks, c.Grants, c.Blocked, c.Spins, c.CASFails, c.Promotions, c.BiasGrants, c.BiasRevokes, c.WriteThrus, c.SlotWaits, c.SlotGrants, c.InvisReads, c.ValAborts, c.Commits, c.Aborts)
}

// Add accumulates c2 into c.
func (c *Coverage) Add(c2 Coverage) {
	c.Deadlocks += c2.Deadlocks
	c.Grants += c2.Grants
	c.Blocked += c2.Blocked
	c.Spins += c2.Spins
	c.CASFails += c2.CASFails
	c.Promotions += c2.Promotions
	c.BiasGrants += c2.BiasGrants
	c.BiasRevokes += c2.BiasRevokes
	c.WriteThrus += c2.WriteThrus
	c.SlotWaits += c2.SlotWaits
	c.SlotGrants += c2.SlotGrants
	c.InvisReads += c2.InvisReads
	c.ValAborts += c2.ValAborts
	c.Commits += c2.Commits
	c.Aborts += c2.Aborts
}

// New creates a scheduler whose policy makes every scheduling and fault
// choice. Attach it to a runtime via stm.Options.Hooks and
// Scheduler.Attach before Run.
func New(pol Policy) *Scheduler {
	s := &Scheduler{
		pol:        pol,
		byGID:      make(map[uint64]*goroutineState),
		blockedTx:  make(map[int]*goroutineState),
		slotWaitTx: make(map[int]*goroutineState),
		barriers:   make(map[string][]*goroutineState),
		check:      newChecker(),
	}
	return s
}

// Attach binds the runtime the scheduler drives (for invariant sweeps
// and stall diagnosis). The runtime must have been created with this
// scheduler as its Hooks.
func (s *Scheduler) Attach(rt *stm.Runtime) { s.rt = rt }

// Watch registers objects whose lock words the periodic invariant
// sweep validates.
func (s *Scheduler) Watch(objs ...*stm.Object) {
	s.mu.Lock()
	s.watched = append(s.watched, objs...)
	s.mu.Unlock()
}

// Decisions returns a copy of the recorded decision trace.
func (s *Scheduler) Decisions() []Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Decision, len(s.decisions))
	copy(out, s.decisions)
	return out
}

// Coverage returns the coverage counters the scheduler counted itself
// (see Coverage); RunScenario completes them from the runtime's Stats.
func (s *Scheduler) Coverage() Coverage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cov
}

// Errors returns all recorded violations.
func (s *Scheduler) Errors() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]error, len(s.errs))
	copy(out, s.errs)
	return out
}

// gid parses the calling goroutine's ID from its stack header. Values
// never influence schedule decisions (those use registration indices),
// so run-to-run gid drift cannot perturb a replay.
func gid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	// "goroutine 123 [running]:"
	const prefix = len("goroutine ")
	var id uint64
	for i := prefix; i < n; i++ {
		c := buf[i]
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

func (s *Scheduler) current() *goroutineState {
	id := gid()
	s.mu.Lock()
	g := s.byGID[id]
	s.mu.Unlock()
	return g
}

// Run executes the workers to completion under the schedule the policy
// chooses, returning the first violation (invariant failure, fairness
// violation, stall, worker panic) or nil.
func (s *Scheduler) Run(workers ...Worker) error {
	if len(workers) == 0 {
		return nil
	}
	s.done = make(chan error, 1)
	var reg sync.WaitGroup
	for i, w := range workers {
		g := &goroutineState{idx: i, name: w.Name, token: make(chan struct{}, 1), state: gReady, awaitTx: -1, awaitSlotTx: -1}
		s.gs = append(s.gs, g)
		s.nLive++
		reg.Add(1)
		go func(w Worker, g *goroutineState) {
			id := gid()
			s.mu.Lock()
			g.gid = id
			s.byGID[id] = g
			s.mu.Unlock()
			reg.Done()
			<-g.token
			defer s.exit(g)
			defer func() {
				if r := recover(); r != nil {
					s.fail(fmt.Errorf("worker %s panicked: %v", g.name, r))
				}
			}()
			w.Body()
		}(w, g)
	}
	reg.Wait()

	s.mu.Lock()
	s.handoffLocked(nil, PointWorkload)
	s.mu.Unlock()

	select {
	case err := <-s.done:
		return err
	case <-time.After(runTimeout):
		s.fail(fmt.Errorf("watchdog: run exceeded %v (%s)", runTimeout, s.stallDiagnosis()))
		return <-s.done
	}
}

// stallDiagnosis summarizes goroutine states for stall errors.
func (s *Scheduler) stallDiagnosis() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stallStatesLocked()
	var blocked []int
	if s.rt != nil {
		s.mu.Unlock()
		blocked = s.rt.BlockedTxns()
		s.mu.Lock()
	}
	return fmt.Sprintf("%senqueued-txns=%v", out, blocked)
}

// fail records a violation, aborts scheduling, and releases every
// goroutine so the process can unwind. Parked STM waiters whose wake
// will never come are leaked; the process is expected to report and
// exit after a failed run.
func (s *Scheduler) fail(err error) {
	s.mu.Lock()
	s.failLocked(err)
	s.mu.Unlock()
}

func (s *Scheduler) failLocked(err error) {
	s.errs = append(s.errs, err)
	if s.failed.Swap(true) {
		return
	}
	for _, g := range s.gs {
		select {
		case g.token <- struct{}{}:
		default:
		}
	}
	select {
	case s.done <- s.combinedLocked():
	default:
	}
}

func (s *Scheduler) combinedLocked() error {
	if len(s.errs) == 0 {
		return nil
	}
	return s.errs[0]
}

// exit retires a finished worker and hands the token onward.
func (s *Scheduler) exit(g *goroutineState) {
	if s.failed.Load() {
		return
	}
	s.mu.Lock()
	g.state = gDone
	s.nLive--
	if s.nLive == 0 {
		select {
		case s.done <- s.combinedLocked():
		default:
		}
		s.mu.Unlock()
		return
	}
	s.handoffLocked(nil, PointWorkload)
	s.mu.Unlock()
}

// candidatesLocked returns the indices of runnable goroutines in
// registration order.
func (s *Scheduler) candidatesLocked() []int {
	var cands []int
	for _, g := range s.gs {
		if g.state == gReady {
			cands = append(cands, g.idx)
		}
	}
	return cands
}

// grantLocked makes g the running goroutine and sends it the token.
func (s *Scheduler) grantLocked(g *goroutineState) {
	g.state = gRunning
	select {
	case g.token <- struct{}{}:
	default:
	}
}

// handoffLocked picks the next runnable goroutine (cur excluded — it is
// blocking or exiting; pass cur == nil at kick-off) and grants it the
// token, or fails the run on a stall: with live goroutines and none
// runnable, no wake can ever come. Caller holds s.mu; it is still held
// on return.
func (s *Scheduler) handoffLocked(cur *goroutineState, p stm.YieldPoint) {
	cands := s.candidatesLocked()
	if len(cands) == 0 {
		if s.nLive > 0 && !s.failed.Load() {
			s.failLocked(fmt.Errorf("global stall: no runnable goroutine (%s)", s.stallStatesLocked()))
		}
		return
	}
	curIdx := -1
	if cur != nil && cur.state == gReady {
		curIdx = cur.idx
	}
	pick := s.pol.PickNext(cands, curIdx, p)
	pick = normalizePick(pick, cands, curIdx)
	s.recordLocked(Decision{Kind: DecSwitch, Point: p, Target: pick})
	s.grantLocked(s.gs[pick])
}

func (s *Scheduler) stallStatesLocked() string {
	out := ""
	for _, g := range s.gs {
		out += fmt.Sprintf("%s=%s ", g.name, gstateNames[g.state])
	}
	return out
}

// normalizePick clamps a policy answer onto the candidate set.
func normalizePick(pick int, cands []int, cur int) int {
	for _, c := range cands {
		if c == pick {
			return pick
		}
	}
	if cur >= 0 {
		return cur
	}
	return cands[0]
}

func (s *Scheduler) recordLocked(d Decision) {
	s.decisions = append(s.decisions, d)
	s.steps++
	if s.steps == maxSteps {
		s.failLocked(fmt.Errorf("step budget exhausted (%d decisions): probable livelock", maxSteps))
	}
}

// Step is a voluntary yield point for workload code, between STM
// operations.
func (s *Scheduler) Step() { s.Yield(PointWorkload) }

// ---- stm.Hooks implementation ----

// Yield implements stm.Hooks: a preemption opportunity for the token
// holder. It also carries the structural invariant sweep, which must run
// outside the scheduler mutex.
func (s *Scheduler) Yield(p stm.YieldPoint) {
	if s.failed.Load() {
		return
	}
	g := s.current()
	if g == nil {
		return
	}

	// Structural invariant sweep.
	s.mu.Lock()
	sweep := s.steps > 0 && s.steps%checkEvery == 0
	rt, watched := s.rt, s.watched
	s.mu.Unlock()
	if sweep && rt != nil {
		if err := rt.CheckInvariants(); err != nil {
			s.fail(fmt.Errorf("invariant sweep: %w", err))
			return
		}
		for _, o := range watched {
			if err := rt.CheckObjectLocks(o); err != nil {
				s.fail(fmt.Errorf("invariant sweep: %w", err))
				return
			}
		}
	}

	// Scheduling decision.
	s.mu.Lock()
	if s.failed.Load() || g.state != gRunning {
		s.mu.Unlock()
		return
	}
	cands := s.candidatesLocked()
	cands = append(cands, g.idx) // the runner itself is always a candidate
	sortInts(cands)
	pick := s.pol.PickNext(cands, g.idx, p)
	pick = normalizePick(pick, cands, g.idx)
	if pick == g.idx {
		s.recordLocked(Decision{Kind: DecSwitch, Point: p, Target: -1})
		s.mu.Unlock()
		return
	}
	s.recordLocked(Decision{Kind: DecSwitch, Point: p, Target: pick})
	g.state = gReady
	s.grantLocked(s.gs[pick])
	s.mu.Unlock()
	<-g.token
}

// Block implements stm.Hooks: the caller is about to park on a runtime
// primitive. It must not park itself; it may hold runtime-internal
// mutexes, so it only flips state and hands the token off.
func (s *Scheduler) Block(p stm.YieldPoint) {
	if s.failed.Load() {
		return
	}
	g := s.current()
	if g == nil {
		return
	}
	s.mu.Lock()
	if g.state != gRunning {
		s.mu.Unlock()
		return
	}
	s.parkLocked(g, p)
	s.mu.Unlock()
}

// parkLocked marks the token holder g parked at p and hands the token
// on. Caller holds s.mu.
func (s *Scheduler) parkLocked(g *goroutineState, p stm.YieldPoint) {
	g.lastBlock = p
	g.state = gBlocked
	s.handoffLocked(g, p)
}

// Unblock implements stm.Hooks: the caller resumed from a park and
// waits for the token. Its wake was announced before it was delivered,
// so the scheduler already holds it runnable (or running); a goroutine
// still held blocked observed a wake nobody announced, which fails the
// run.
func (s *Scheduler) Unblock(p stm.YieldPoint) {
	if s.failed.Load() {
		return
	}
	g := s.current()
	if g == nil {
		return
	}
	s.mu.Lock()
	if g.state == gBlocked {
		s.failLocked(fmt.Errorf("unannounced wake at %v: %s resumed while the scheduler held it blocked", p, g.name))
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	<-g.token
}

// FailCAS implements stm.Hooks fault injection.
func (s *Scheduler) FailCAS(p stm.YieldPoint) bool {
	if s.failed.Load() {
		return false
	}
	if s.current() == nil {
		return false
	}
	fire := s.pol.Fault(FaultCAS)
	s.mu.Lock()
	s.recordLocked(Decision{Kind: DecFault, FKind: FaultCAS, Fault: fire})
	if fire {
		s.cov.CASFails++
	}
	s.mu.Unlock()
	return fire
}

// Event implements stm.Hooks: protocol event intake. May run under the
// detector mutex — it only updates scheduler state and never calls back
// into the runtime.
func (s *Scheduler) Event(ev stm.Event) {
	g := s.current() // nil for unregistered goroutines (setup code)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Kind {
	case stm.EvSlotWait:
		s.slotWaitTx[ev.TxID] = g
		for _, og := range s.gs {
			if og.awaitSlotTx == ev.TxID {
				og.awaitSlotTx = -1
				s.wakeLocked(og)
			}
		}
	case stm.EvSlotGrant:
		// A direct lease handoff, announced before the releaser places
		// the slot in the waiter's channel: exactly the recipient becomes
		// runnable (broadcasting would wake sections no slot was handed
		// to).
		s.cov.SlotGrants++
		s.wakeLocked(s.slotWaitTx[ev.TxID])
		delete(s.slotWaitTx, ev.TxID)
	case stm.EvInevRelease:
		for _, og := range s.gs {
			if og.lastBlock == stm.PointInevWait {
				s.wakeLocked(og)
			}
		}
	case stm.EvBlocked:
		s.blockedTx[ev.TxID] = g
		for _, og := range s.gs {
			if og.awaitTx == ev.TxID {
				og.awaitTx = -1
				s.wakeLocked(og)
			}
		}
	case stm.EvGranted:
		s.cov.Grants++
		s.wakeLocked(s.blockedTx[ev.TxID])
		delete(s.blockedTx, ev.TxID)
	case stm.EvAbortWaiter:
		s.wakeLocked(s.blockedTx[ev.TxID])
		delete(s.blockedTx, ev.TxID)
	}
	if err := s.check.observe(ev); err != nil {
		s.failLocked(fmt.Errorf("checker: %w", err))
	}
}

// wakeLocked marks a parked g runnable after its wake event. A nil g
// (a waiter that is not a registered worker) is ignored, and so is
// a g that is not parked: a running one woke its own waiter (a grant
// before it parked, or the self-victim unwind) and does not park for
// it, and a ready one was already woken (the inevitability token's
// release names every goroutine whose last park was on it).
func (s *Scheduler) wakeLocked(g *goroutineState) {
	if g != nil && g.state == gBlocked {
		g.state = gReady
	}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// ---- scheduler-native coordination primitives for scenarios ----

// Barrier parks the caller until n workers have reached the tag, then
// releases them all. Deterministic: the n-th arriver continues running,
// the others become runnable and are rescheduled by policy.
func (s *Scheduler) Barrier(tag string, n int) {
	if s.failed.Load() {
		return
	}
	g := s.current()
	if g == nil {
		return
	}
	s.mu.Lock()
	arrived := append(s.barriers[tag], g)
	if len(arrived) >= n {
		delete(s.barriers, tag)
		for _, og := range arrived {
			if og != g {
				og.barrier = ""
				s.wakeLocked(og)
			}
		}
		s.mu.Unlock()
		return
	}
	s.barriers[tag] = arrived
	g.barrier = tag
	s.parkLocked(g, PointWorkload)
	s.mu.Unlock()
	<-g.token
	g.barrier = ""
}

// AwaitBlocked parks the caller until transaction txID is enqueued on a
// lock (it returns immediately if it already is). Scenarios use it to
// force "waiter is queued before holder releases" interleavings.
func (s *Scheduler) AwaitBlocked(txID int) {
	if s.failed.Load() {
		return
	}
	g := s.current()
	if g == nil {
		return
	}
	s.mu.Lock()
	if _, ok := s.blockedTx[txID]; ok {
		s.mu.Unlock()
		return
	}
	g.awaitTx = txID
	s.parkLocked(g, PointWorkload)
	s.mu.Unlock()
	<-g.token
}

// AwaitSlotBlocked parks the caller until transaction txID is parked in
// the slot pool's overflow tier (it returns immediately if it already
// is). Scenarios use it to force "waiter is queued for a slot lease
// before a holder releases one" interleavings.
func (s *Scheduler) AwaitSlotBlocked(txID int) {
	if s.failed.Load() {
		return
	}
	g := s.current()
	if g == nil {
		return
	}
	s.mu.Lock()
	if _, ok := s.slotWaitTx[txID]; ok {
		s.mu.Unlock()
		return
	}
	g.awaitSlotTx = txID
	s.parkLocked(g, PointWorkload)
	s.mu.Unlock()
	<-g.token
}
