package stm

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// slotPool leases the lock word's bounded slots (bits 0..MaxTxns-1) to
// sections that hold locks. A transaction's *identity* is its unbounded
// start ticket (Tx.ID); a slot is only the visibility resource a
// section needs while it owns lock words, acquired on the section's
// first lock acquisition and released at commit/abort. Begin therefore
// never touches this pool — only >MaxTxns sections holding locks
// *simultaneously* contend here.
//
// The fast path is one CAS on a free-bit mask, as cheap as the old ID
// pool's. When the mask is empty, waiters queue in a FIFO overflow tier
// and releasers hand their slot directly to the queue head, so a
// fast-path CAS can never barge past a parked waiter and waits resolve
// in arrival order. Per §3.3 this parking is safe: a section that waits
// for anything first ends (releasing its slot), and a slot waiter holds
// no locks, no bias slots, and not the inevitability token — a
// wait-for cycle can never pass through the pool.
type slotPool struct {
	free  atomic.Uint64 // bit i set = slot i free
	nwait atomic.Int32  // queued overflow waiters (release fast check)

	mu      sync.Mutex
	waiters []*slotWaiter // FIFO overflow tier

	// gens[i] counts lease transitions of slot i: odd from the grant
	// (took) to the release, even otherwise — while free, and also in
	// flight through a direct handoff, when the bit is in neither the
	// mask nor any holder's hands: release makes it even before handoff
	// sends the slot, and the recipient's took makes it odd again. The
	// parity is the lease flag (leased) — a grant landing on an odd
	// generation or a release landing on an even one is a double-lease /
	// double-free and trips a panic instead of silently corrupting the
	// mask — so policing costs one atomic add, not a separate flag CAS.
	// Lease k of a slot spans generations [2k-1, 2k].
	gens [MaxTxns]atomic.Uint64

	rt *Runtime // for schedule-exploration hooks and events
}

// slotWaiter is one parked section in the overflow tier. ch is
// buffered so the granting releaser never blocks on the handoff.
type slotWaiter struct {
	id int
	ch chan int
}

func newSlotPool(rt *Runtime, n int) *slotPool {
	p := &slotPool{rt: rt}
	p.free.Store((uint64(1) << uint(n)) - 1)
	return p
}

// cas is the fault-injectable CAS on the free-bit mask (acquire side).
func (p *slotPool) cas(old, new uint64) bool {
	return !p.rt.failCAS(PointSlotPoolCAS) && p.free.CompareAndSwap(old, new)
}

// took marks a slot as out on lease (generation parity flips to odd).
// Every grant path (fast CAS, slow CAS, direct handoff, rescue)
// funnels through here, so a slot granted twice without an intervening
// release always trips the invariant.
func (p *slotPool) took(slot int) int {
	if p.gens[slot].Add(1)&1 == 0 {
		panic(fmt.Sprintf("stm: slot %d leased while already on lease", slot))
	}
	return slot
}

// acquire leases a slot, parking in the FIFO overflow tier when all
// MaxTxns slots are held by other sections. waited reports whether the
// goroutine actually parked: a slow-path entry that wins a CAS race
// without parking is not a wait (and is not charged to SlotWaits /
// SlotWaitNs), so the counters measure real slot pressure, not CAS
// noise.
func (p *slotPool) acquire(tx *Tx) (slot int, waited bool) {
	for {
		m := p.free.Load()
		if m == 0 {
			break
		}
		b := m & (-m)
		if p.cas(m, m&^b) {
			return p.took(bitIndex(b)), false
		}
	}
	rt := p.rt
	p.mu.Lock()
	// Publish the waiter count before re-checking the mask: a releaser
	// publishes its bit before loading nwait, so either this re-check
	// sees the bit or the releaser sees the waiter and rescues it.
	p.nwait.Add(1)
	for {
		m := p.free.Load()
		if m == 0 {
			break
		}
		b := m & (-m)
		if p.cas(m, m&^b) {
			p.nwait.Add(-1)
			p.mu.Unlock()
			return p.took(bitIndex(b)), false
		}
	}
	w := &slotWaiter{id: tx.ID(), ch: make(chan int, 1)}
	p.waiters = append(p.waiters, w)
	p.mu.Unlock()

	rt.event(Event{Kind: EvSlotWait, TxID: tx.ID(), Ticket: tx.ticket})
	tx.n.SlotWaits++
	start := time.Now()
	rt.block(PointSlotWait)
	slot = <-w.ch
	rt.unblock(PointSlotWait)
	tx.n.SlotWaitNs += uint64(time.Since(start))
	return p.took(slot), true
}

// release returns a slot. If the overflow tier is non-empty the slot is
// handed directly to the FIFO head — its bit never returns to the mask,
// so fast-path acquirers cannot pass parked waiters. Otherwise the
// bit is republished; a waiter that enqueued concurrently is rescued
// afterwards (see the ordering note in acquire). The uncontended path
// is mutex-free: one generation add, one mask CAS, two nwait loads.
func (p *slotPool) release(slot int) {
	if p.gens[slot].Add(1)&1 != 0 {
		panic(fmt.Sprintf("stm: release of slot %d that is not on lease", slot))
	}
	if p.nwait.Load() > 0 && p.handoff(slot) {
		return
	}
	bit := txMask(slot)
	for {
		m := p.free.Load()
		if m&bit != 0 {
			panic(fmt.Sprintf("stm: slot %d freed while already in the pool", slot))
		}
		if p.free.CompareAndSwap(m, m|bit) {
			break
		}
	}
	if p.nwait.Load() > 0 {
		p.rescue()
	}
}

// handoff gives slot to the overflow-tier head, reporting false if the
// tier drained before the mutex was taken. The grant event is emitted
// synchronously by the releaser, before the send, so a harness can wake
// exactly the recipient before the physical channel wake is observable.
func (p *slotPool) handoff(slot int) bool {
	p.mu.Lock()
	if len(p.waiters) == 0 {
		p.mu.Unlock()
		return false
	}
	w := p.popLocked()
	p.mu.Unlock()
	p.rt.event(Event{Kind: EvSlotGrant, TxID: w.id, OtherID: slot})
	w.ch <- slot
	return true
}

// rescue re-claims free bits for waiters that enqueued while a release
// was publishing its bit. It loops because several releases may have
// raced several enqueues.
func (p *slotPool) rescue() {
	for {
		p.mu.Lock()
		if len(p.waiters) == 0 {
			p.mu.Unlock()
			return
		}
		m := p.free.Load()
		if m == 0 {
			// Some acquirer took the published bit; its own release
			// will find nwait > 0 and hand off or rescue in turn.
			p.mu.Unlock()
			return
		}
		b := m & (-m)
		if !p.free.CompareAndSwap(m, m&^b) {
			p.mu.Unlock()
			continue
		}
		w := p.popLocked()
		p.mu.Unlock()
		p.rt.event(Event{Kind: EvSlotGrant, TxID: w.id, OtherID: bitIndex(b)})
		w.ch <- bitIndex(b)
	}
}

func (p *slotPool) popLocked() *slotWaiter {
	w := p.waiters[0]
	copy(p.waiters, p.waiters[1:])
	p.waiters[len(p.waiters)-1] = nil
	p.waiters = p.waiters[:len(p.waiters)-1]
	p.nwait.Add(-1)
	return w
}

// available returns the number of free slots.
func (p *slotPool) available() int { return bits.OnesCount64(p.free.Load()) }

// leased reports whether slot is out on lease: granted and not yet
// released. A holder bit or a live bias slot of an unleased slot
// belongs to no section (CheckInvariants, CheckObjectLocks).
func (p *slotPool) leased(slot int) bool { return p.gens[slot].Load()&1 != 0 }

// queued returns the number of sections parked in the overflow tier.
func (p *slotPool) queued() int { return int(p.nwait.Load()) }
