package core

import (
	"fmt"
	"sync"

	"repro/internal/stm"
)

// Runtime is one SBD program: an STM runtime plus thread bookkeeping.
type Runtime struct {
	stm *stm.Runtime
	wg  sync.WaitGroup
}

// New creates an SBD runtime with the default STM options.
func New() *Runtime { return NewOpts(stm.Options{}) }

// NewOpts creates an SBD runtime with explicit STM options.
func NewOpts(opts stm.Options) *Runtime {
	return &Runtime{stm: stm.NewRuntimeOpts(opts)}
}

// FromSTM wraps an existing STM runtime in an SBD runtime. The stress
// harness uses this to drive SBD-layer threads against an STM runtime
// whose hooks it already owns; production code should use New/NewOpts.
func FromSTM(s *stm.Runtime) *Runtime { return &Runtime{stm: s} }

// STM exposes the underlying STM runtime (for statistics and advanced
// use).
func (rt *Runtime) STM() *stm.Runtime { return rt.stm }

// CheckInvariants validates the structural invariants of the underlying
// STM runtime (see stm.Runtime.CheckInvariants). Only meaningful when
// the runtime is quiescent or serialized by a harness.
func (rt *Runtime) CheckInvariants() error { return rt.stm.CheckInvariants() }

// Stats returns the STM statistics counters.
func (rt *Runtime) Stats() *stm.Stats { return rt.stm.Stats() }

// Profile returns the per-lock-site contention profile.
func (rt *Runtime) Profile() *stm.Profile { return rt.stm.Profile() }

// Recorder returns the protocol-event flight recorder.
func (rt *Runtime) Recorder() *stm.FlightRecorder { return rt.stm.Recorder() }

// Main runs body as the program's main SBD thread on the calling
// goroutine and returns when it — not necessarily all threads it spawned
// — has finished. A panic in the main thread is re-raised in the caller.
func (rt *Runtime) Main(body func(th *Thread)) {
	th := rt.newThread("main", body)
	th.run()
	rt.wg.Wait()
	if th.err != nil {
		panic(th.err)
	}
}

func (rt *Runtime) newThread(name string, body func(th *Thread)) *Thread {
	rt.wg.Add(1)
	return &Thread{
		rt:   rt,
		name: name,
		body: body,
		done: make(chan struct{}),
	}
}

// Thread is an SBD thread: a goroutine that at any moment executes
// inside exactly one active atomic section (paper §2.1). Threads are
// created with Thread.Go and start when the creating section ends.
type Thread struct {
	rt   *Runtime
	name string
	body func(th *Thread)
	done chan struct{}
	err  any

	tx       *stm.Tx
	log      []func(tx *stm.Tx)
	inAtomic bool
	noSplit  int
}

// Name returns the thread's name.
func (th *Thread) Name() string { return th.name }

// Tx returns the thread's currently active transaction. It is intended
// for instrumentation; shared-memory accesses belong inside Atomic.
func (th *Thread) Tx() *stm.Tx { return th.tx }

// start launches the thread's goroutine. It is invoked by the creating
// section's commit (deferred thread start, paper §3.5).
func (th *Thread) start() { go th.run() }

func (th *Thread) run() {
	defer close(th.done)
	defer th.rt.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			th.err = r
			if th.tx != nil {
				// Unwind cleanly: roll back, then release the locks, the
				// slot lease and, if the section was inevitable, the
				// inevitability token.
				func() {
					defer func() { recover() }()
					th.tx.Reset()
					th.tx.AbandonAfterReset()
				}()
				th.tx = nil
			}
		}
	}()
	th.beginSection()
	th.body(th)
	th.endSection()
}

func (th *Thread) beginSection() {
	th.tx = th.rt.stm.Begin()
	th.log = th.log[:0]
}

func (th *Thread) endSection() {
	th.replayFrom(len(th.log), true)
	th.tx = nil
	th.log = th.log[:0]
}

// Atomic executes f inside the thread's current atomic section and
// records it in the section's replay log. If the section is aborted
// (deadlock victim), the runtime rolls the transaction back and
// re-executes every closure recorded since the section began. Atomic
// may be called from inside another Atomic closure; the nested call
// simply joins the enclosing execution (atomic sections do not nest,
// paper §2.2).
func (th *Thread) Atomic(f func(tx *stm.Tx)) {
	if th.tx == nil {
		panic("core: Atomic outside a running thread")
	}
	if th.inAtomic {
		f(th.tx)
		return
	}
	th.log = append(th.log, f)
	th.replayFrom(len(th.log)-1, false)
}

// replayFrom runs the replay log starting at index start and, if commit
// is set, commits the section; on abort it resets the transaction and
// runs the whole section again. Commit itself can abort: a section that
// read invisibly revalidates its read-set at commit time
// (stm/readset.go), and a failure unwinds with *Aborted before anything
// irreversible happened. The crushed site score makes the replay read
// visibly, so the loop terminates.
func (th *Thread) replayFrom(start int, commit bool) {
	for !th.tryRun(start, commit) {
		// Replay at once: the transaction keeps its start ticket across
		// Reset, so it ages until it is the oldest, which is never a
		// victim. After a lost upgrade duel the boosted promotion hint
		// usually makes the replay write-lock up front.
		th.tx.Reset()
		start = 0
	}
}

// tryRun is the one place a section's abort is recovered: an abort of
// the thread's own transaction returns false, any other panic goes on.
func (th *Thread) tryRun(start int, commit bool) (ok bool) {
	defer func() {
		th.inAtomic = false
		if r := recover(); r != nil {
			if ab, isAbort := r.(*stm.Aborted); isAbort && ab.Tx == th.tx {
				ok = false
				return
			}
			panic(r)
		}
	}()
	th.inAtomic = true
	for i := start; i < len(th.log); i++ {
		th.log[i](th.tx)
	}
	th.inAtomic = false
	if commit {
		th.tx.Commit()
	}
	return true
}

// Split ends the current atomic section and begins a new one: locks and
// the section's external effects become visible, deferred actions run.
// Inside a NoSplit block, Split is ignored (§3.7). Split must be called
// at thread level; calling it inside an Atomic closure panics — this is
// the runtime form of the canSplit discipline.
func (th *Thread) Split() {
	if th.inAtomic {
		panic("core: Split inside an Atomic closure (canSplit violation); use AtomicSplit or restructure")
	}
	if th.tx == nil {
		panic("core: Split outside a running thread")
	}
	if th.noSplit > 0 {
		return
	}
	th.endSection()
	th.beginSection()
}

// AtomicSplit runs f atomically and then splits — the idiom of paper
// Figure 1 (process one request, then release everything).
func (th *Thread) AtomicSplit(f func(tx *stm.Tx)) {
	th.Atomic(f)
	th.Split()
}

// NoSplit executes f with splits suppressed, composing everything f does
// into the current atomic section (composability, paper §3.7).
func (th *Thread) NoSplit(f func()) {
	th.noSplit++
	defer func() { th.noSplit-- }()
	f()
}

// SplitRequired declares that the caller cannot make progress without a
// split (e.g. it sends a request and waits for the response). Inside a
// NoSplit block this is an error and panics; the paper's splitOptional
// discussion motivates the check.
func (th *Thread) SplitRequired() {
	if th.noSplit > 0 {
		panic("core: operation requires a split inside a NoSplit block")
	}
}

// Go creates a new SBD thread. The thread's actual start is deferred
// until the current atomic section ends (paper §3.5): aborting the
// current section therefore never requires aborting the child, and data
// the current section holds locks on becomes available exactly when the
// child may run.
func (th *Thread) Go(name string, body func(th *Thread)) *Thread {
	if th.tx == nil {
		panic("core: Go outside a running thread")
	}
	t := th.rt.newThread(name, body)
	th.tx.OnCommit(t.start)
	return t
}

// Join waits for thread t to finish. Join always splits first: this
// guarantees t has started (its deferred start runs when our section
// ends) and releases the joiner's transaction ID while it waits. A panic
// that terminated t is re-raised in the joiner.
func (th *Thread) Join(t *Thread) {
	th.canSplit("Join")
	th.park(func() { <-t.done })
	if t.err != nil {
		panic(fmt.Sprintf("core: joined thread %s failed: %v", t.name, t.err))
	}
}

// Suspend ends the current atomic section, runs f outside any section
// (for blocking on an external event such as an incoming connection),
// and begins a new section. Like Join and Wait it releases the thread's
// locks and transaction ID while blocked — the rule of paper §3.3 that
// makes bounding the number of concurrent transactions safe.
func (th *Thread) Suspend(f func()) {
	th.canSplit("Suspend")
	th.park(f)
}

// canSplit panics unless the thread may end its section here, for op
// (Suspend, Join or Wait): at thread level, outside any Atomic closure
// and any NoSplit block.
func (th *Thread) canSplit(op string) {
	if th.inAtomic {
		panic("core: " + op + " inside an Atomic closure (canSplit violation)")
	}
	th.SplitRequired()
}

// park is the one blocking path of Suspend, Join and Wait: it commits
// the current section, runs wait outside any section and begins the
// next.
func (th *Thread) park(wait func()) {
	th.endSection()
	wait()
	th.beginSection()
}

// Fetch runs f atomically in the thread's current section and returns
// its result. The result is replay-safe only if it is consumed before
// any later Atomic of the same section or the section is split right
// after; for in-section dataflow, assign to a variable captured by both
// closures instead (see the package documentation).
func Fetch[T any](th *Thread, f func(tx *stm.Tx) T) T {
	var v T
	th.Atomic(func(tx *stm.Tx) { v = f(tx) })
	return v
}

// FetchSplit runs f atomically, splits, and returns the result — always
// replay-safe because the producing section has committed.
func FetchSplit[T any](th *Thread, f func(tx *stm.Tx) T) T {
	v := Fetch(th, f)
	th.Split()
	return v
}
