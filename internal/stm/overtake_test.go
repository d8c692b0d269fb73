package stm

import (
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

// On a promoted site, a release defers the grant to a parked plain
// waiter (bounded overtaking), later acquirers CAS past the installed
// queue without enqueueing, and DrainQueues delivers the deferred
// grant at a quiesce point.
func TestOvertakeDeferredGrantAndDrain(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("OvertakeDrain", FieldSpec{Name: "v", Kind: KindWord})
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

	// The release's grant scan must be deferred: the waiter stays parked
	// even though the lock is now free. (Its parkRegrant self-service
	// timer is orders of magnitude away from this check.)
	tx1.Commit()
	time.Sleep(200 * time.Microsecond)
	if !anyParked(rt) {
		t.Fatal("release on a promoted site granted a parked plain waiter immediately; want deferred")
	}

	// A later transaction overtakes the installed queue on the fast
	// path: no enqueue, so it contributes nothing to Contended (the
	// parked waiter's own enqueue is still buffered in its transaction
	// until it commits).
	tx3 := rt.Begin()
	tx3.WriteWord(o, v, 9)
	tx3.Commit()
	if got := rt.Stats().Snapshot().Contended; got != 0 {
		t.Fatalf("Contended = %d after the overtaking write, want 0 (overtaker enqueued)", got)
	}
	if !anyParked(rt) {
		t.Fatal("waiter no longer parked after the overtaking write")
	}

	rt.DrainQueues()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("DrainQueues did not deliver the deferred grant")
	}
	if got := CommittedWord(o, v); got != 2 {
		t.Fatalf("final value = %d, want 2 (waiter's write lands last)", got)
	}
	if got := rt.Stats().Snapshot().Contended; got != 1 {
		t.Fatalf("Contended = %d after the waiter committed, want 1 (only the parked waiter enqueued)", got)
	}
}

// Without a promotion hint the release path grants parked waiters
// immediately — bounded overtaking never engages on cold sites.
func TestNoOvertakeOnUnpromotedSite(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("OvertakeCold", FieldSpec{Name: "v", Kind: KindWord})
	o := NewCommitted(c)
	v := c.Field("v")

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
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("release did not grant the parked waiter on an unpromoted site")
	}
}

// Under steady release traffic a deferred waiter is granted after at
// most grantSkipMax releases — overtaking trades FIFO order for
// throughput, never for starvation.
func TestOvertakeGrantBounded(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("OvertakeBound", FieldSpec{Name: "v", Kind: KindWord})
	o := NewCommitted(c)
	v := c.Field("v")
	rt.noteSite(c.fields[v].siteID, siteDuelLoss)

	tx1 := rt.Begin()
	val := tx1.ReadWord(o, v) // promoted to write
	tx1.WriteWord(o, v, val+1)

	done := make(chan struct{})
	go func() {
		tx2 := rt.Begin()
		v2 := tx2.ReadWord(o, v)
		tx2.WriteWord(o, v, v2+1)
		tx2.Commit()
		close(done)
	}()
	waitParked(t, rt)
	tx1.Commit()

	// grantSkipMax further releases force the grant even if every one of
	// them is in a position to defer.
	const writers = grantSkipMax + 8
	for i := 0; i < writers; i++ {
		tx := rt.Begin()
		w := tx.ReadWord(o, v)
		tx.WriteWord(o, v, w+1)
		tx.Commit()
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("waiter still parked after %d releases; grantSkipMax bound broken", writers)
	}
	rt.DrainQueues()
	if got, want := CommittedWord(o, v), uint64(writers+2); got != want {
		t.Fatalf("final value = %d, want %d", got, want)
	}
}

// If a promoted site's traffic stops right after a deferred grant, the
// parked waiter rescues itself via its parkRegrant timer — no drain
// call and no further releases needed.
func TestParkRegrantTimerRescue(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("OvertakeRescue", FieldSpec{Name: "v", Kind: KindWord})
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
	tx1.Commit() // grant deferred; no more traffic ever arrives
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("parked waiter was not rescued by its self-service timer")
	}
}
