package core

import "sync"

// Cond is an SBD condition variable (paper §3.5). Signals are deferred
// until the signaling atomic section ends, so the locks on the waiting
// condition are free and the modifications visible by the time waiters
// re-check. Waiting splits first, releasing all locks (including the
// ones on the condition) and the waiter's transaction ID.
type Cond struct {
	mu      sync.Mutex
	waiters []chan struct{}
}

// NewCond creates a condition variable.
func NewCond() *Cond { return &Cond{} }

// Wait blocks the thread until the condition is signaled. The current
// atomic section ends before blocking and a fresh one begins afterwards,
// so the caller must re-check the awaited condition in a loop (paper
// Figure 6). Wait must be called at thread level.
//
// The waiter registers before its section commits: a notifier cannot
// commit an update to the condition while this section still holds a
// lock on it, so the registration is always visible to the wake-up that
// matters — no lost signals.
func (th *Thread) Wait(c *Cond) {
	th.canSplit("Wait")
	ch := make(chan struct{})
	c.mu.Lock()
	c.waiters = append(c.waiters, ch)
	c.mu.Unlock()
	th.park(func() { <-ch })
}

// Notify wakes one waiter when the current atomic section commits. If
// the section aborts, the deferred signal is dropped (it was never
// justified).
func (th *Thread) Notify(c *Cond) {
	th.tx.OnCommit(func() {
		c.mu.Lock()
		if len(c.waiters) > 0 {
			close(c.waiters[0])
			c.waiters = c.waiters[1:]
		}
		c.mu.Unlock()
	})
}

// NotifyAll wakes every waiter when the current atomic section commits.
func (th *Thread) NotifyAll(c *Cond) {
	th.tx.OnCommit(func() {
		c.mu.Lock()
		ws := c.waiters
		c.waiters = nil
		c.mu.Unlock()
		for _, ch := range ws {
			close(ch)
		}
	})
}
