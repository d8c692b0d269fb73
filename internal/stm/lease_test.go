package stm

import (
	"sync"
	"testing"
	"time"
)

// Slot-lease life cycle, the counterpart of qid_test.go's queue-ID
// leak tests: lock-word slots are leased on a section's first lock
// acquisition, released at commit/abort, recycled across sections, and
// the pool never leaks a slot even across direct overflow-tier
// handoffs (where a slot's bit lives in neither the free mask nor any
// holder's hands for a moment).

// TestSlotGenerationReuse observes generation counting across lessees:
// releasing and re-acquiring a slot bumps its generation, so the same
// physical slot serves a sequence of distinct virtual IDs. Lease k
// spans generations [2k-1, 2k] (odd while held, even when returned).
func TestSlotGenerationReuse(t *testing.T) {
	p := newSlotPool(1)
	tx := &Tx{}
	for i := 1; i <= 5; i++ {
		tx.vid = i
		slot, waited := p.acquire(tx)
		if slot != 0 {
			t.Fatalf("lease %d: slot = %d, want 0 (single-slot pool)", i, slot)
		}
		if waited {
			t.Fatalf("lease %d: waited on an uncontended pool", i)
		}
		if gen := p.gens[0].Load(); gen != uint64(2*i-1) {
			t.Fatalf("lease %d: generation = %d, want %d (odd = on lease)", i, gen, 2*i-1)
		}
		p.release(slot)
		if gen := p.gens[0].Load(); gen != uint64(2*i) {
			t.Fatalf("release %d: generation = %d, want %d (even = free)", i, gen, 2*i)
		}
	}
}

// TestSlotOverflowFIFOFairness establishes an arrival order in the
// overflow tier and asserts leases are handed out in exactly that
// order: a direct handoff never lets a later arrival (or a fast-path
// CAS) barge past the queue head.
func TestSlotOverflowFIFOFairness(t *testing.T) {
	p := newSlotPool(1)
	slot, _ := p.acquire(&Tx{vid: 0})

	const waiters = 4
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, waited := p.acquire(&Tx{vid: 100 + i})
			if !waited {
				t.Errorf("waiter %d: acquire on an exhausted pool did not report waiting", i)
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			p.release(s)
		}(i)
		// Establish arrival order i=0,1,2,... in the overflow tier.
		deadline := time.Now().Add(2 * time.Second)
		for p.queued() != i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never parked (queued=%d)", i, p.queued())
			}
			time.Sleep(time.Millisecond)
		}
	}
	p.release(slot)
	wg.Wait()
	for i := 0; i < waiters; i++ {
		if order[i] != i {
			t.Fatalf("overflow tier not FIFO: order=%v", order)
		}
	}
	if p.available() != 1 {
		t.Fatalf("pool leaked across handoffs: %d available, want 1", p.available())
	}
}

// TestSlotDoubleFreePanics pins the bidirectional lease invariant:
// releasing a slot that is not on lease must panic rather than silently
// double-publish its bit.
func TestSlotDoubleFreePanics(t *testing.T) {
	p := newSlotPool(2)
	slot, _ := p.acquire(&Tx{vid: 1})
	p.release(slot)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	p.release(slot)
}

// TestSlotWaitChargedOnlyOnPark is the accounting regression test: the
// old ID pool charged a wait to any transaction that entered the slow
// path, even when it grabbed a freed ID without ever parking. A
// slow-path entry that self-serves from the re-check must report
// waited=false; only a real park counts.
func TestSlotWaitChargedOnlyOnPark(t *testing.T) {
	p := newSlotPool(1)
	slot, _ := p.acquire(&Tx{vid: 1})

	// Hold the pool mutex so the second acquirer, finding the mask
	// empty, sits at the slow path's entry. Releasing the slot while it
	// sits there puts the bit back (no waiter is registered yet), so the
	// re-check under the mutex self-serves without parking.
	p.mu.Lock()
	got := make(chan bool)
	go func() {
		_, waited := p.acquire(&Tx{vid: 2})
		got <- waited
	}()
	time.Sleep(20 * time.Millisecond)
	p.release(slot)
	p.mu.Unlock()
	if waited := <-got; waited {
		t.Fatal("slow-path acquire that never parked reported waited=true")
	}
}

// TestSlotLeaseNoLeak drives many rounds of slot churn through a full
// runtime — sections beginning, locking, committing, some waiting in
// the overflow tier — and asserts every slot returns to the pool after
// quiescence. This is the qid_test.go leak pattern applied to leases.
func TestSlotLeaseNoLeak(t *testing.T) {
	rt := NewRuntimeOpts(Options{MaxConcurrentTxns: 4})
	c := NewClass("LeaseLeak", FieldSpec{Name: "v", Kind: KindWord})
	v := c.Field("v")
	objs := make([]*Object, 8)
	for i := range objs {
		objs[i] = NewCommitted(c)
	}

	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				retryLoop(rt, func(tx *Tx) {
					tx.WriteInt(objs[g], v, tx.ReadInt(objs[g], v)+1)
				})
			}(g)
		}
		wg.Wait()
		if got := rt.LeasedSlots(); got != 0 {
			t.Fatalf("round %d: %d slots still leased after quiescence (leak)", round, got)
		}
		if got := rt.SlotWaiters(); got != 0 {
			t.Fatalf("round %d: %d stale overflow waiters after quiescence", round, got)
		}
	}
	// Every section that began has ended: each committed exactly once.
	if got := rt.Stats().Snapshot().Commits; got != 20*8 {
		t.Fatalf("Commits = %d after quiescence, want %d", got, 20*8)
	}
}

// TestOverflowTierBreaksTxnCeiling is the headline acceptance test of
// the identity split: more than MaxTxns sections hold locks
// concurrently-in-progress, and the surplus drains through the overflow
// tier to completion. Under the old design the 57th Begin would have
// deadlocked the run.
func TestOverflowTierBreaksTxnCeiling(t *testing.T) {
	const sections = MaxTxns + 4
	rt := NewRuntime()
	c := NewClass("Ceiling", FieldSpec{Name: "v", Kind: KindWord})
	v := c.Field("v")
	objs := make([]*Object, sections)
	for i := range objs {
		objs[i] = NewCommitted(c)
	}

	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < sections; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx := rt.Begin() // never blocks: identity is virtual
			tx.WriteInt(objs[i], v, 1)
			<-release
			tx.Commit()
		}(i)
	}

	// All 56 slots go out on lease and the surplus sections park in the
	// overflow tier.
	deadline := time.Now().Add(10 * time.Second)
	for rt.LeasedSlots() != MaxTxns || rt.SlotWaiters() != sections-MaxTxns {
		if time.Now().After(deadline) {
			t.Fatalf("saturation never reached: leased=%d waiters=%d, want %d/%d",
				rt.LeasedSlots(), rt.SlotWaiters(), MaxTxns, sections-MaxTxns)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i, o := range objs {
		if got := CommittedWord(o, v); got != 1 {
			t.Fatalf("section %d never committed (object = %d, want 1)", i, got)
		}
	}
	snap := rt.Stats().Snapshot()
	if snap.SlotWaits < uint64(sections-MaxTxns) {
		t.Fatalf("SlotWaits = %d, want at least %d", snap.SlotWaits, sections-MaxTxns)
	}
	if got := rt.LeasedSlots(); got != 0 {
		t.Fatalf("%d slots leaked after all sections committed", got)
	}
}
