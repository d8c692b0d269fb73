package stm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// anyParked reports whether any transaction is currently enqueued on a
// wait queue of rt.
func anyParked(rt *Runtime) bool {
	for i := 0; i < MaxTxns; i++ {
		if rt.det.blocked[i].Load() != nil {
			return true
		}
	}
	return false
}

// waitParked blocks until a transaction parks on a queue of rt.
func waitParked(t *testing.T, rt *Runtime) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !anyParked(rt) {
		if time.Now().After(deadline) {
			t.Fatal("no transaction parked within 5s")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// The release of a contended lock grants the parked waiter in the
// release itself, whatever the site's policy: the waiter is off the
// blocked table by the time Commit returns.
func TestReleaseGrantsParkedWaiter(t *testing.T) {
	for _, promoted := range []bool{false, true} {
		name := "cold"
		if promoted {
			name = "promoted"
		}
		t.Run(name, func(t *testing.T) {
			rt := NewRuntime()
			c := NewClass("ReleaseGrants/"+name, FieldSpec{Name: "v", Kind: KindWord})
			o := NewCommitted(c)
			v := c.Field("v")
			if promoted {
				rt.noteSite(c.fields[v].siteID, siteDuelLoss)
			}

			tx1 := rt.Begin()
			tx1.WriteWord(o, v, 1)
			done := make(chan struct{})
			go func() {
				tx2 := rt.Begin()
				tx2.WriteWord(o, v, 2)
				tx2.Commit()
				close(done)
			}()
			waitParked(t, rt)
			tx1.Commit()
			if anyParked(rt) {
				t.Fatal("the release left the parked waiter parked")
			}
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("granted waiter did not commit")
			}
		})
	}
}

// On a promoted site the queue stays FIFO: the parked waiter's write
// lands before the write of a transaction that arrives after the
// release, so the later arrival's value is the one that stays.
func TestPromotedReleaseGrantsQueueHead(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("PromotedQueueHead", FieldSpec{Name: "v", Kind: KindWord})
	o := NewCommitted(c)
	v := c.Field("v")
	rt.noteSite(c.fields[v].siteID, siteDuelLoss)

	tx1 := rt.Begin()
	tx1.WriteWord(o, v, 1)
	done := make(chan struct{})
	go func() {
		tx2 := rt.Begin()
		tx2.WriteWord(o, v, 2)
		tx2.Commit()
		close(done)
	}()
	waitParked(t, rt)
	tx1.Commit()

	tx3 := rt.Begin()
	tx3.WriteWord(o, v, 9)
	tx3.Commit()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("parked waiter never committed")
	}
	if got := CommittedWord(o, v); got != 9 {
		t.Fatalf("final value = %d, want 9 (the parked waiter's write must land before a later arrival's)", got)
	}
}

// selfGrantHooks makes a waiter's own enqueue grant it: on the waiter's
// EvBlocked (emitted under the queue mutex) it commits holder on
// another goroutine and returns once holder's release CAS is done —
// holder's wakeQueue then waits for the queue mutex the waiter still
// holds, so the grant scan that follows the enqueue hands the waiter
// the lock. It counts every Block and Unblock.
type selfGrantHooks struct {
	holder    *Tx
	released  chan struct{}
	release   sync.Once
	committed chan struct{}
	parks     atomic.Int32
}

func (h *selfGrantHooks) Yield(p YieldPoint) {
	if p == PointWakeQueue {
		h.release.Do(func() { close(h.released) })
	}
}
func (h *selfGrantHooks) Block(YieldPoint)        { h.parks.Add(1) }
func (h *selfGrantHooks) Unblock(YieldPoint)      { h.parks.Add(1) }
func (h *selfGrantHooks) FailCAS(YieldPoint) bool { return false }
func (h *selfGrantHooks) Event(ev Event) {
	if ev.Kind != EvBlocked {
		return
	}
	go func() {
		h.holder.Commit()
		close(h.committed)
	}()
	<-h.released
}

// A waiter granted by the scan of its own enqueue never parks: the
// grant already signalled its channel, and a harness must not see a
// park whose wake came before it (every wake is announced before it is
// delivered; see Hooks).
func TestSelfGrantedWaiterNeverParks(t *testing.T) {
	h := &selfGrantHooks{released: make(chan struct{}), committed: make(chan struct{})}
	rt := NewRuntimeOpts(Options{Hooks: h})
	c := NewClass("SelfGrant", FieldSpec{Name: "v", Kind: KindWord})
	o := NewCommitted(c)
	v := c.Field("v")

	h.holder = rt.Begin()
	h.holder.WriteWord(o, v, 1)
	tx := rt.Begin()
	tx.WriteWord(o, v, 2)
	tx.Commit()
	<-h.committed
	if n := h.parks.Load(); n != 0 {
		t.Fatalf("the self-granted waiter made %d Block/Unblock calls, want 0", n)
	}
	if got := CommittedWord(o, v); got != 2 {
		t.Fatalf("final value = %d, want 2", got)
	}
}
