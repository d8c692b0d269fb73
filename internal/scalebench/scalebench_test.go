package scalebench

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/stm"
)

// TestMixes runs every mix at one and two threads. Run panics when a
// mix's own verify finds a lost update (upgrade-duel, contended-counter,
// batch-chain and rmw-hotset all check their committed sums), so
// reaching the assertions at all means no mix lost one; the assertions
// then check the op budget and that the tier a mix is named for fired.
func TestMixes(t *testing.T) {
	const ops = 2000
	for _, m := range Mixes() {
		for _, threads := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/threads=%d", m.Name, threads), func(t *testing.T) {
				r := Run(m, threads, ops)
				if r.Ops != ops {
					t.Errorf("Ops = %d, want %d", r.Ops, ops)
				}
				if r.Mix != m.Name || r.Threads != threads || r.Elapsed <= 0 || r.TxnsPerSec <= 0 {
					t.Errorf("cell header not filled in: %+v", r)
				}
				switch m.Name {
				case "read-fan":
					if r.InvisReads == 0 && r.BiasGrants == 0 {
						t.Errorf("pure readers never left the visible tier: %+v", r)
					}
				case "batch-chain":
					if r.BatchAcquires < ops || r.BatchWords != 3*r.BatchAcquires {
						t.Errorf("%d batches over %d words, want one 3-word batch per commit (%d) and per counted retry (%d aborts)",
							r.BatchAcquires, r.BatchWords, ops, r.Aborts)
					}
					if r.IntentHints == 0 {
						t.Errorf("the declared-intent read never counted: %+v", r)
					}
				case "upgrade-duel":
					if threads > 1 && r.Contended == 0 {
						t.Errorf("two dueling upgraders never contended: %+v", r)
					}
				}
			})
		}
	}
}

// The contended path allocates nothing per wait: every queue ID owns one
// preallocated queue, so contended-counter's sections, driven through a
// handshake that makes every round enqueue, take fewer mallocs than one
// per hundred enqueues. An allocation per queue install fails it. The
// holder commits only once the rival is queued behind it; a spinner
// that outlasts the holder never reaches the queue, so without the
// handshake a run can enqueue almost never and measure nothing.
func TestContendedCounterAllocatesNothingPerEnqueue(t *testing.T) {
	if !poolRecycles() {
		t.Skip("sync.Pool drops objects in this build (-race), so every Begin may allocate")
	}
	var m Mix
	for _, mm := range Mixes() {
		if mm.Name == "contended-counter" {
			m = mm
		}
	}
	const rounds = 10_000
	blocked := make(enqueueSignal, 1)
	rt := stm.NewRuntimeOpts(stm.Options{Hooks: blocked})
	cells := []*stm.Object{stm.NewCommitted(cellClass)}
	held, done := make(chan int), make(chan struct{})
	go func() { // the rival: one section per round, queued behind the holder
		for i := range held {
			runMixTxn(rt, m, cells, 1, i)
			done <- struct{}{}
		}
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		tx := rt.Begin()
		m.body(tx, cells, 0, i)
		held <- i
		<-blocked
		tx.Commit()
		<-done
	}
	runtime.ReadMemStats(&after)
	close(held)
	if err := m.verify(cells, 2*rounds); err != nil {
		t.Fatal(err)
	}
	enqueues := rt.Stats().Snapshot().Contended
	if enqueues < rounds {
		t.Fatalf("%d enqueues over %d rounds: the handshake let a rival skip the queue", enqueues, rounds)
	}
	if mallocs := after.Mallocs - before.Mallocs; mallocs >= enqueues/100 {
		t.Errorf("%d mallocs for %d enqueues, want fewer than %d", mallocs, enqueues, enqueues/100)
	} else {
		t.Logf("%d mallocs for %d enqueues", mallocs, enqueues)
	}
}

// enqueueSignal is a Hooks that only reports enqueues (EvBlocked) on a
// channel, never blocking the runtime. Its Yield is a no-op, so a spin
// round costs nothing and the rival enqueues at once.
type enqueueSignal chan struct{}

func (h enqueueSignal) Yield(stm.YieldPoint)        {}
func (h enqueueSignal) Block(stm.YieldPoint)        {}
func (h enqueueSignal) Unblock(stm.YieldPoint)      {}
func (h enqueueSignal) FailCAS(stm.YieldPoint) bool { return false }
func (h enqueueSignal) Event(ev stm.Event) {
	if ev.Kind == stm.EvBlocked {
		select {
		case h <- struct{}{}:
		default:
		}
	}
}

// poolRecycles reports whether sync.Pool hands back the object just put
// into it. The race detector makes it drop objects at random.
func poolRecycles() bool {
	var p sync.Pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1000; i++ {
		x, _ := p.Get().(*[64]byte)
		if x == nil {
			x = new([64]byte)
		}
		p.Put(x)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs-before.Mallocs < 100
}
