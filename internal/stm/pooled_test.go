package stm

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestPooledTxPinsNoGarbage: a recycled Tx keeps nothing of the section
// it last ran alive. An object that a committed section made with New,
// and one whose last reference that section overwrote (its undo value),
// are both collected once dropped, while the same Tx runs a new section
// that logs nothing.
func TestPooledTxPinsNoGarbage(t *testing.T) {
	rt := NewRuntime()
	next := accountClass.Field("next")
	holder := NewCommitted(accountClass)
	for attempt := 0; attempt < 100; attempt++ {
		tx, made, replaced := runDroppingSection(rt, holder, next)
		again := rt.Begin()
		if again != tx {
			again.Commit()
			continue // the pool handed out another Tx; try again
		}
		for _, c := range []struct {
			name string
			ch   <-chan struct{}
		}{{"object made by New", made}, {"overwritten reference", replaced}} {
			if !collected(c.ch) {
				t.Errorf("%s is still reachable from the pooled Tx", c.name)
			}
		}
		again.Commit()
		return
	}
	t.Skip("the Tx pool never handed the same Tx back")
}

// runDroppingSection commits a section on a fresh Tx that makes an
// object and overwrites holder's reference to another, then drops both.
// The returned channels close when the two objects are finalized.
//
//go:noinline
func runDroppingSection(rt *Runtime, holder *Object, next FieldID) (tx *Tx, made, replaced <-chan struct{}) {
	old := NewCommitted(accountClass)
	holder.SetRawRef(next, old)
	tx = rt.Begin()
	o := tx.New(accountClass)
	tx.WriteRef(holder, next, nil)
	tx.Commit()
	return tx, finalized(o), finalized(old)
}

func finalized(o *Object) <-chan struct{} {
	ch := make(chan struct{})
	runtime.SetFinalizer(o, func(*Object) { close(ch) })
	return ch
}

// collected runs the collector until ch closes, for up to a second.
func collected(ch <-chan struct{}) bool {
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		select {
		case <-ch:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// TestPooledTxForgetsRequeued: the spin budget is a function of its own
// section. A Tx whose section went through the wait queue, recycled
// through the pool, starts its next section with no queue trip on
// record, so that section spins in full before it enqueues.
func TestPooledTxForgetsRequeued(t *testing.T) {
	if !poolRecycles() {
		t.Skip("sync.Pool drops objects in this build (-race), so Begin may not hand the Tx back")
	}
	rt := NewRuntime()
	o := NewCommitted(accountClass)
	bal := accountClass.Field("balance")
	for attempt := 0; attempt < 100; attempt++ {
		holder := rt.Begin()
		holder.WriteWord(o, bal, 1)
		type result struct{ queued, same, requeued bool }
		done := make(chan result)
		go func() {
			tx := rt.Begin()
			tx.WriteWord(o, bal, 2) // spins, enqueues behind holder, is granted
			queued := tx.requeued
			tx.Commit()
			// The holder's Tx, recycled on this P first, may come back
			// ahead of this one.
			a, b := rt.Begin(), rt.Begin()
			again := a
			if b == tx {
				again = b
			}
			done <- result{queued, again == tx, again.requeued}
			a.Commit()
			b.Commit()
		}()
		for len(rt.BlockedTxns()) == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		holder.Commit()
		r := <-done
		if !r.queued {
			t.Fatal("the waiter's section never went through the queue")
		}
		if !r.same {
			continue // the pool handed out another Tx; try again
		}
		if r.requeued {
			t.Fatal("a pooled Tx carried its last section's queue trip into a new section")
		}
		return
	}
	t.Skip("the Tx pool never handed the same Tx back")
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
