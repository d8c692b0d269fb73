package sched

import (
	"fmt"

	"repro/internal/stm"
)

// checker validates protocol properties online from the event stream:
//
//   - FIFO fairness: a lock is granted only to the head of its wait
//     queue, where the queue model is append-at-tail except for
//     upgrading readers, which enqueue at the front (paper §3.2).
//   - Youngest-victim deadlock resolution: the aborted transaction of a
//     resolved cycle is the youngest (largest begin ticket) among the
//     cycle's non-inevitable members, so the oldest always progresses
//     and an inevitable transaction never aborts (paper §3.4, §4.2).
//     A dueling write-upgrade (paper §3.3) is a two-member cycle, so
//     the same check covers it.
//
// The checker is fed under the scheduler mutex; events from one runtime
// arrive in a serial order consistent with the detector mutex.
type checker struct {
	queues map[*uint64][]qentry
}

type qentry struct {
	txID     int
	upgrader bool
}

func newChecker() *checker {
	return &checker{queues: make(map[*uint64][]qentry)}
}

func (c *checker) observe(ev stm.Event) error {
	switch ev.Kind {
	case stm.EvBlocked:
		e := qentry{txID: ev.TxID, upgrader: ev.Upgrader}
		if ev.Upgrader {
			c.queues[ev.Addr] = append([]qentry{e}, c.queues[ev.Addr]...)
		} else {
			c.queues[ev.Addr] = append(c.queues[ev.Addr], e)
		}

	case stm.EvGranted:
		q := c.queues[ev.Addr]
		if len(q) == 0 {
			return fmt.Errorf("fairness: grant to tx %d on empty queue %p", ev.TxID, ev.Addr)
		}
		if q[0].txID != ev.TxID {
			return fmt.Errorf("fairness: lock %p granted to tx %d past queue head tx %d (queue %v)",
				ev.Addr, ev.TxID, q[0].txID, qentryIDs(q))
		}
		c.pop(ev.Addr, ev.TxID)

	case stm.EvAbortWaiter:
		// Victims leave the queue from any position.
		if !c.pop(ev.Addr, ev.TxID) {
			return fmt.Errorf("fairness: abort of tx %d not found in queue %p", ev.TxID, ev.Addr)
		}

	case stm.EvDeadlock:
		return c.checkDeadlock(ev)
	}
	return nil
}

// pop removes txID from the queue model of addr, reporting whether it
// was present.
func (c *checker) pop(addr *uint64, txID int) bool {
	q := c.queues[addr]
	for i, e := range q {
		if e.txID == txID {
			q = append(q[:i], q[i+1:]...)
			if len(q) == 0 {
				delete(c.queues, addr)
			} else {
				c.queues[addr] = q
			}
			return true
		}
	}
	return false
}

func qentryIDs(q []qentry) []int {
	ids := make([]int, len(q))
	for i, e := range q {
		ids[i] = e.txID
	}
	return ids
}

func (c *checker) checkDeadlock(ev stm.Event) error {
	victimIdx := -1
	for i, id := range ev.CycleIDs {
		if id == ev.VictimID {
			victimIdx = i
			break
		}
	}
	if victimIdx < 0 {
		return fmt.Errorf("deadlock: victim tx %d not on reported cycle %v", ev.VictimID, ev.CycleIDs)
	}
	if ev.CycleInev[victimIdx] {
		return fmt.Errorf("deadlock: inevitable tx %d chosen as victim (cycle %v)", ev.VictimID, ev.CycleIDs)
	}
	victimTicket := ev.CycleTickets[victimIdx]
	for i, id := range ev.CycleIDs {
		if ev.CycleInev[i] {
			continue
		}
		if ev.CycleTickets[i] > victimTicket {
			return fmt.Errorf("deadlock: victim tx %d (ticket %d) is not the youngest non-inevitable member; tx %d has ticket %d (cycle ids=%v tickets=%v)",
				ev.VictimID, victimTicket, id, ev.CycleTickets[i], ev.CycleIDs, ev.CycleTickets)
		}
	}
	return nil
}
