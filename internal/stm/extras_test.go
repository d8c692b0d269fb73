package stm

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestAbortUnwindsAndRetries(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("C", FieldSpec{Name: "v", Kind: KindWord})
	o := NewCommitted(c)
	v := c.Field("v")

	tx := rt.Begin()
	tx.WriteInt(o, v, 99)
	ab := runAborting(t, func() { tx.Abort("testing") })
	if ab == nil || ab.Tx != tx || !strings.Contains(ab.Reason, "testing") {
		t.Fatalf("Abort payload wrong: %+v", ab)
	}
	tx.Reset()
	if tx.ReadInt(o, v) != 0 {
		t.Fatal("user abort did not roll back after Reset")
	}
	tx.WriteInt(o, v, 1)
	tx.Commit()
}

func TestInevitableSingleton(t *testing.T) {
	rt := NewRuntime()
	tx1 := rt.Begin()
	tx1.BecomeInevitable()
	if !tx1.Inevitable() {
		t.Fatal("BecomeInevitable did not mark the transaction")
	}
	tx1.BecomeInevitable() // idempotent

	got := make(chan struct{})
	tx2 := rt.Begin()
	go func() {
		tx2.BecomeInevitable()
		close(got)
	}()
	select {
	case <-got:
		t.Fatal("two transactions became inevitable at once")
	case <-time.After(50 * time.Millisecond):
	}
	tx1.Commit()
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("inevitability token never handed over")
	}
	tx2.Commit()
	if rt.Stats().Snapshot().InevWaits == 0 {
		t.Fatal("inevitability wait not counted")
	}
}

func TestInevitableCannotAbort(t *testing.T) {
	rt := NewRuntime()
	tx := rt.Begin()
	tx.BecomeInevitable()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Abort on inevitable transaction did not panic")
			}
		}()
		tx.Abort("nope")
	}()
	tx.Commit()
}

func TestInevitableNeverDeadlockVictim(t *testing.T) {
	// The inevitable transaction is the YOUNGER party of the deadlock;
	// normally it would be the victim, but inevitability overrides age.
	rt := NewRuntime()
	c := NewClass("C", FieldSpec{Name: "v", Kind: KindWord})
	a, b := NewCommitted(c), NewCommitted(c)
	v := c.Field("v")

	older := rt.Begin()
	younger := rt.Begin()
	younger.BecomeInevitable()

	older.WriteInt(a, v, 1)
	younger.WriteInt(b, v, 2)

	youngerDone := make(chan struct{})
	go func() {
		younger.WriteInt(a, v, 3) // blocks on older
		younger.Commit()
		close(youngerDone)
	}()
	time.Sleep(50 * time.Millisecond)

	ab := runAborting(t, func() { older.WriteInt(b, v, 4) })
	if ab == nil || ab.Tx != older {
		t.Fatalf("expected the older, non-inevitable transaction as victim; got %+v", ab)
	}
	older.Reset()
	older.Commit()
	select {
	case <-youngerDone:
	case <-time.After(2 * time.Second):
		t.Fatal("inevitable transaction did not complete")
	}
}

func TestSlotPoolNoDuplicatesUnderStress(t *testing.T) {
	p := newSlotPool(NewRuntime(), 8)
	var inUse [8]int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tx := &Tx{ticket: uint64(g)}
			for i := 0; i < 500; i++ {
				slot, _ := p.acquire(tx)
				mu.Lock()
				inUse[slot]++
				if inUse[slot] != 1 {
					t.Errorf("slot %d handed out twice", slot)
				}
				mu.Unlock()
				mu.Lock()
				inUse[slot]--
				mu.Unlock()
				p.release(slot)
			}
		}(g)
	}
	wg.Wait()
	if p.available() != 8 {
		t.Fatalf("pool leaked: %d available, want 8", p.available())
	}
}

func TestSlotPoolBlocksWhenEmpty(t *testing.T) {
	p := newSlotPool(NewRuntime(), 1)
	slot, waited := p.acquire(&Tx{ticket: 0})
	if waited {
		t.Fatal("first acquire reported waiting")
	}
	got := make(chan int)
	go func() {
		slot2, w2 := p.acquire(&Tx{ticket: 1})
		if !w2 {
			t.Error("blocked acquire did not report waiting")
		}
		got <- slot2
	}()
	select {
	case <-got:
		t.Fatal("second acquire proceeded on an empty pool")
	case <-time.After(50 * time.Millisecond):
	}
	p.release(slot)
	select {
	case slot2 := <-got:
		p.release(slot2)
	case <-time.After(2 * time.Second):
		t.Fatal("blocked acquire never woke")
	}
}
