package stm

import (
	"runtime"
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
