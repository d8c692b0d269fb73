package core

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stm"
)

var counterClass = stm.NewClass("Counter", stm.FieldSpec{Name: "n", Kind: stm.KindWord})

func TestMainRunsBodyInSection(t *testing.T) {
	rt := New()
	o := stm.NewCommitted(counterClass)
	n := counterClass.Field("n")
	rt.Main(func(th *Thread) {
		if th.Tx() == nil {
			t.Error("main thread has no active section")
		}
		th.Atomic(func(tx *stm.Tx) { tx.WriteInt(o, n, 5) })
	})
	s := rt.Stats().Snapshot()
	if s.Commits == 0 {
		t.Fatal("main thread's section never committed")
	}
}

func TestFigure1WorkersSerializeOnSharedCounter(t *testing.T) {
	// Paper Figure 1: two workers process requests and bump a shared
	// `processed` counter; a split per iteration lets them interleave.
	rt := New()
	processed := stm.NewCommitted(counterClass)
	n := counterClass.Field("n")
	const requests = 50

	worker := func(th *Thread) {
		for i := 0; i < requests; i++ {
			th.AtomicSplit(func(tx *stm.Tx) {
				tx.WriteInt(processed, n, tx.ReadInt(processed, n)+1)
			})
		}
	}
	rt.Main(func(th *Thread) {
		a := th.Go("worker-a", worker)
		b := th.Go("worker-b", worker)
		th.Join(a)
		th.Join(b)
		if got := Fetch(th, func(tx *stm.Tx) int64 { return tx.ReadInt(processed, n) }); got != 2*requests {
			t.Errorf("processed = %d, want %d", got, 2*requests)
		}
	})
}

func TestMissingSplitSerializesButStaysCorrect(t *testing.T) {
	// SBD's incremental property (§2.1): without splits, threads
	// serialize — but the result is still correct.
	rt := New()
	o := stm.NewCommitted(counterClass)
	n := counterClass.Field("n")
	worker := func(th *Thread) {
		for i := 0; i < 20; i++ {
			th.Atomic(func(tx *stm.Tx) { // no split
				tx.WriteInt(o, n, tx.ReadInt(o, n)+1)
			})
		}
	}
	rt.Main(func(th *Thread) {
		a := th.Go("a", worker)
		b := th.Go("b", worker)
		th.Join(a)
		th.Join(b)
	})
	tx := rt.STM().Begin()
	if got := tx.ReadInt(o, n); got != 40 {
		t.Fatalf("counter = %d, want 40", got)
	}
	tx.Commit()
}

func TestSplitInsideAtomicPanics(t *testing.T) {
	rt := New()
	defer func() {
		if recover() == nil {
			t.Fatal("Split inside Atomic did not panic")
		}
	}()
	rt.Main(func(th *Thread) {
		th.Atomic(func(tx *stm.Tx) { th.Split() })
	})
}

func TestGoIsDeferredToSectionEnd(t *testing.T) {
	rt := New()
	var started atomic.Bool
	rt.Main(func(th *Thread) {
		child := th.Go("child", func(*Thread) { started.Store(true) })
		time.Sleep(50 * time.Millisecond)
		if started.Load() {
			t.Error("child started before the creating section ended")
		}
		th.Split() // section ends: deferred start fires
		th.Join(child)
		if !started.Load() {
			t.Error("child never started after split")
		}
	})
}

func TestJoinSplitsFirst(t *testing.T) {
	// Join must make the creating section's effects visible (it splits),
	// otherwise the child could deadlock against its parent.
	rt := New()
	o := stm.NewCommitted(counterClass)
	n := counterClass.Field("n")
	rt.Main(func(th *Thread) {
		th.Atomic(func(tx *stm.Tx) { tx.WriteInt(o, n, 1) }) // parent holds write lock
		child := th.Go("child", func(c *Thread) {
			c.Atomic(func(tx *stm.Tx) { tx.WriteInt(o, n, tx.ReadInt(o, n)+1) })
		})
		th.Join(child) // must not deadlock: split releases the lock first
	})
	tx := rt.STM().Begin()
	if got := tx.ReadInt(o, n); got != 2 {
		t.Fatalf("n = %d, want 2", got)
	}
	tx.Commit()
}

func TestReplayOnDeadlockVictim(t *testing.T) {
	// Two threads update two cells in opposite order within one section:
	// one becomes the deadlock victim, replays, and both finish with
	// serializable results.
	rt := New()
	a := stm.NewCommitted(counterClass)
	b := stm.NewCommitted(counterClass)
	n := counterClass.Field("n")
	mover := func(first, second *stm.Object) func(th *Thread) {
		return func(th *Thread) {
			for i := 0; i < 25; i++ {
				th.Atomic(func(tx *stm.Tx) { tx.WriteInt(first, n, tx.ReadInt(first, n)+1) })
				th.Atomic(func(tx *stm.Tx) { tx.WriteInt(second, n, tx.ReadInt(second, n)+1) })
				th.Split()
			}
		}
	}
	rt.Main(func(th *Thread) {
		t1 := th.Go("ab", mover(a, b))
		t2 := th.Go("ba", mover(b, a))
		th.Join(t1)
		th.Join(t2)
	})
	tx := rt.STM().Begin()
	ga, gb := tx.ReadInt(a, n), tx.ReadInt(b, n)
	tx.Commit()
	if ga != 50 || gb != 50 {
		t.Fatalf("a=%d b=%d, want 50/50 (replay lost updates)", ga, gb)
	}
}

func TestReplayReexecutesWholeSection(t *testing.T) {
	// Dataflow through a captured variable must refresh on replay.
	rt := New()
	a := stm.NewCommitted(counterClass)
	b := stm.NewCommitted(counterClass)
	n := counterClass.Field("n")
	var replays atomic.Int64
	mover := func(first, second *stm.Object) func(th *Thread) {
		return func(th *Thread) {
			for i := 0; i < 25; i++ {
				var v int64
				th.Atomic(func(tx *stm.Tx) { v = tx.ReadInt(first, n) })
				th.Atomic(func(tx *stm.Tx) {
					replays.Add(1)
					tx.WriteInt(first, n, v+1)
					tx.WriteInt(second, n, tx.ReadInt(second, n)+1)
				})
				th.Split()
			}
		}
	}
	rt.Main(func(th *Thread) {
		t1 := th.Go("ab", mover(a, b))
		t2 := th.Go("ba", mover(b, a))
		th.Join(t1)
		th.Join(t2)
	})
	tx := rt.STM().Begin()
	ga, gb := tx.ReadInt(a, n), tx.ReadInt(b, n)
	tx.Commit()
	if ga != 50 || gb != 50 {
		t.Fatalf("a=%d b=%d, want 50/50 (stale captured variable on replay)", ga, gb)
	}
}

func TestCommitValidationAbortReplaysSection(t *testing.T) {
	// An invisible read takes no lock, so a writer can commit under it;
	// the reader's commit-time validation then aborts, and the section
	// must replay (reading visibly) instead of being dropped.
	rt := New()
	o := stm.NewCommitted(counterClass)
	n := counterClass.Field("n")
	rt.STM().SeedInvisible(counterClass, n)
	read, written := make(chan struct{}), make(chan struct{})
	var seen []int64
	rt.Main(func(th *Thread) {
		// The object's first read installs its version array and stays
		// visible; the next section's read is invisible.
		th.AtomicSplit(func(tx *stm.Tx) { tx.ReadInt(o, n) })
		w := th.Go("writer", func(w *Thread) {
			w.Suspend(func() { <-read })
			w.AtomicSplit(func(tx *stm.Tx) { tx.WriteInt(o, n, tx.ReadInt(o, n)+1) })
			close(written)
		})
		th.Split() // starts the writer
		th.Atomic(func(tx *stm.Tx) {
			seen = append(seen, tx.ReadInt(o, n))
			if len(seen) == 1 {
				close(read)
				<-written
			}
		})
		th.Split()
		th.Join(w)
	})
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 1 {
		t.Fatalf("reader attempts saw %v, want [0 1] (section dropped, not replayed)", seen)
	}
	s := rt.Stats().Snapshot()
	if s.ValidationAborts != 1 || s.InvisReads == 0 {
		t.Fatalf("ValidationAborts = %d, InvisReads = %d; want 1 and > 0", s.ValidationAborts, s.InvisReads)
	}
}

func TestNoSplitComposesSections(t *testing.T) {
	rt := New()
	o := stm.NewCommitted(counterClass)
	n := counterClass.Field("n")
	rt.Main(func(th *Thread) {
		before := rt.Stats().Snapshot().Commits
		th.NoSplit(func() {
			th.AtomicSplit(func(tx *stm.Tx) { tx.WriteInt(o, n, 1) })
			th.AtomicSplit(func(tx *stm.Tx) { tx.WriteInt(o, n, tx.ReadInt(o, n)+1) })
		})
		after := rt.Stats().Snapshot().Commits
		if after != before {
			t.Errorf("NoSplit leaked %d commits; splits were not suppressed", after-before)
		}
	})
	tx := rt.STM().Begin()
	if got := tx.ReadInt(o, n); got != 2 {
		t.Fatalf("n = %d, want 2", got)
	}
	tx.Commit()
}

func TestSplitRequiredPanicsInNoSplit(t *testing.T) {
	rt := New()
	defer func() {
		if recover() == nil {
			t.Fatal("SplitRequired inside NoSplit did not panic")
		}
	}()
	rt.Main(func(th *Thread) {
		th.NoSplit(func() { th.SplitRequired() })
	})
}

func TestJoinPropagatesChildPanic(t *testing.T) {
	rt := New()
	defer func() {
		if recover() == nil {
			t.Fatal("Join did not propagate the child panic")
		}
	}()
	rt.Main(func(th *Thread) {
		child := th.Go("bad", func(*Thread) { panic("boom") })
		th.Join(child)
	})
}

// A thread that panics inside an inevitable section must roll back its
// writes and release its locks, slot and the inevitability token on the
// way out: afterwards both a plain read of the written word and a new
// BecomeInevitable proceed instead of blocking forever.
func TestPanicInInevitableSectionReleases(t *testing.T) {
	rt := New()
	o := stm.NewCommitted(counterClass)
	n := counterClass.Field("n")
	var joinErr any
	var got int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Main(func(th *Thread) {
			th.AtomicSplit(func(tx *stm.Tx) { tx.WriteInt(o, n, 1) })
			child := th.Go("inevitable", func(th *Thread) {
				th.Atomic(func(tx *stm.Tx) {
					tx.WriteInt(o, n, 7)
					tx.BecomeInevitable()
					panic("boom")
				})
			})
			func() {
				defer func() { joinErr = recover() }()
				th.Join(child)
			}()
			th.Atomic(func(tx *stm.Tx) { got = tx.ReadInt(o, n) })
			th.AtomicSplit(func(tx *stm.Tx) { tx.BecomeInevitable() })
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the dead thread's lock or inevitability token was never released")
	}
	if joinErr == nil {
		t.Error("Join did not propagate the child panic")
	}
	if got != 1 {
		t.Errorf("word after the dead thread = %d, want 1 (its write rolled back)", got)
	}
}

func TestFetchSplitReturnsCommittedValue(t *testing.T) {
	rt := New()
	o := stm.NewCommitted(counterClass)
	n := counterClass.Field("n")
	rt.Main(func(th *Thread) {
		th.Atomic(func(tx *stm.Tx) { tx.WriteInt(o, n, 41) })
		got := FetchSplit(th, func(tx *stm.Tx) int64 { return tx.ReadInt(o, n) + 1 })
		if got != 42 {
			t.Errorf("FetchSplit = %d, want 42", got)
		}
	})
}

func TestWaitNotifyBarrier(t *testing.T) {
	// Paper Figure 6: a barrier built from wait/notifyAll. The paper's
	// `expected` field is final; finality means it needs no
	// synchronization, which a Go constant models exactly.
	barrierClass := stm.NewClass("Barrier",
		stm.FieldSpec{Name: "arrived", Kind: stm.KindWord},
	)
	arrivedF := barrierClass.Field("arrived")

	rt := New()
	const parties = 5
	bo := stm.NewCommitted(barrierClass)
	expected := int64(parties)
	cond := NewCond()
	sync := func(th *Thread) {
		var mustWait bool
		th.Atomic(func(tx *stm.Tx) {
			a := tx.ReadInt(bo, arrivedF) + 1
			tx.WriteInt(bo, arrivedF, a)
			mustWait = a < expected
			if !mustWait {
				th.NotifyAll(cond)
			}
		})
		if mustWait {
			for Fetch(th, func(tx *stm.Tx) bool { return tx.ReadInt(bo, arrivedF) < expected }) {
				th.Wait(cond)
			}
		} else {
			th.Split()
		}
	}

	var passed atomic.Int64
	rt.Main(func(th *Thread) {
		var kids []*Thread
		for i := 0; i < parties; i++ {
			kids = append(kids, th.Go("party", func(c *Thread) {
				sync(c)
				passed.Add(1)
			}))
		}
		for _, k := range kids {
			th.Join(k)
		}
	})
	if passed.Load() != parties {
		t.Fatalf("%d of %d parties passed the barrier", passed.Load(), parties)
	}
}

func TestNotifyWakesOne(t *testing.T) {
	rt := New()
	flag := stm.NewCommitted(counterClass)
	n := counterClass.Field("n")
	cond := NewCond()
	var woken atomic.Int64

	rt.Main(func(th *Thread) {
		waiterBody := func(c *Thread) {
			for Fetch(c, func(tx *stm.Tx) bool { return tx.ReadInt(flag, n) == 0 }) {
				c.Wait(cond)
			}
			woken.Add(1)
		}
		w1 := th.Go("w1", waiterBody)
		w2 := th.Go("w2", waiterBody)
		th.Split() // start both
		time.Sleep(100 * time.Millisecond)

		th.Atomic(func(tx *stm.Tx) {
			tx.WriteInt(flag, n, 1)
			th.NotifyAll(cond)
		})
		th.Split() // deliver the deferred signal
		th.Join(w1)
		th.Join(w2)
	})
	if woken.Load() != 2 {
		t.Fatalf("woken = %d, want 2", woken.Load())
	}
}

func TestNotifyDroppedOnAbortIsSafe(t *testing.T) {
	// A deferred signal from a section that aborts must not fire; the
	// replay re-registers it, so waiters still wake exactly when the
	// section finally commits.
	rt := New()
	o := stm.NewCommitted(counterClass)
	n := counterClass.Field("n")
	if got := Fetch2(rt, o, n); got != 0 {
		t.Fatalf("seed = %d", got)
	}
}

// Fetch2 is a helper exercising Fetch from outside a thread body (via
// Main) and returning a value.
func Fetch2(rt *Runtime, o *stm.Object, n stm.FieldID) int64 {
	var v int64
	rt.Main(func(th *Thread) {
		v = Fetch(th, func(tx *stm.Tx) int64 { return tx.ReadInt(o, n) })
	})
	return v
}

func TestManyThreadsBeyondIDLimit(t *testing.T) {
	// More SBD threads than transaction IDs: sections must still all
	// run, sequentially sharing the ID pool (paper §3.3).
	rt := NewOpts(stm.Options{MaxConcurrentTxns: 4})
	o := stm.NewCommitted(counterClass)
	n := counterClass.Field("n")
	const threads = 12
	rt.Main(func(th *Thread) {
		var kids []*Thread
		for i := 0; i < threads; i++ {
			kids = append(kids, th.Go("t", func(c *Thread) {
				c.AtomicSplit(func(tx *stm.Tx) { tx.WriteInt(o, n, tx.ReadInt(o, n)+1) })
			}))
		}
		for _, k := range kids {
			th.Join(k)
		}
	})
	tx := rt.STM().Begin()
	if got := tx.ReadInt(o, n); got != threads {
		t.Fatalf("n = %d, want %d", got, threads)
	}
	tx.Commit()
}
