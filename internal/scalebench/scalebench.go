// Package scalebench is the multi-thread scalability benchmark suite
// for the STM's contended path, in the style of Synchrobench-like
// read/write-mix methodology: fixed transaction mixes run at a chosen
// number of goroutines, reported as transactions per second. It is the
// stm-contend workload of benchmark/, which owns the thread sweep, the
// repetition and the recorded run conditions.
//
// On a single-core container two microsecond-scale critical sections
// essentially never overlap by accident, so each mix forces real
// contention by yielding the processor (runtime.Gosched) at chosen
// points *inside* the critical section — while a lock is held, or while
// a read lock is held just before an upgrade. This drives the slow path
// (enqueue, deadlock pre-check, grant handoff, release wake) on every
// transaction, which is exactly the machinery the sharded detector is
// supposed to scale; the uncontended fast path is covered separately by
// BenchmarkTable6*.
package scalebench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stm"
)

var cellClass = stm.NewClass("scalebench.cell", stm.FieldSpec{Name: "v", Kind: stm.KindWord})
var cellV = cellClass.Field("v")

// Mix is one transaction mix of the suite.
type Mix struct {
	Name string
	// body runs one transaction's accesses. w is the worker index, i the
	// worker-local operation counter (used to pick read vs. write in
	// mixed workloads); cells are the shared objects of the run.
	body func(tx *stm.Tx, cells []*stm.Object, w, i int)
	// cells is the number of shared objects the mix uses.
	cells int
	// verify checks the committed state after the run; ops is the total
	// number of committed transactions.
	verify func(cells []*stm.Object, ops uint64) error
}

// Mixes returns the mixes of the suite, in reporting order.
func Mixes() []Mix {
	return []Mix{
		{
			// Every transaction increments one shared counter, yielding while the write lock is held.
			Name:  "contended-counter",
			cells: 1,
			body: func(tx *stm.Tx, cells []*stm.Object, w, i int) {
				v := tx.ReadWord(cells[0], cellV)
				tx.WriteWord(cells[0], cellV, v+1)
				runtime.Gosched() // hold the write lock across a reschedule
			},
			verify: func(cells []*stm.Object, ops uint64) error {
				if got := stm.CommittedWord(cells[0], cellV); got != ops {
					return fmt.Errorf("counter = %d after %d committed increments", got, ops)
				}
				return nil
			},
		},
		{
			// 90% read-only / 10% increment transactions on one shared cell.
			Name:  "read-mostly",
			cells: 1,
			body: func(tx *stm.Tx, cells []*stm.Object, w, i int) {
				if i%10 == 9 {
					v := tx.ReadWord(cells[0], cellV)
					tx.WriteWord(cells[0], cellV, v+1)
				} else {
					_ = tx.ReadWord(cells[0], cellV)
				}
				runtime.Gosched() // hold the lock (read or write) across a reschedule
			},
		},
		{
			// 100% read-only transactions fanning over a 4-cell shared hot set (read-bias target).
			Name:  "read-fan",
			cells: 4,
			body: func(tx *stm.Tx, cells []*stm.Object, w, i int) {
				// Pure reader fan-out: every worker reads the whole hot set
				// every transaction, holding its read visibility (reader
				// slots once the bias engages) across a reschedule. With
				// visible readers on the shared word this serializes on the
				// lock-word cache line; with read bias engaged the only
				// shared-word traffic left is the per-transaction commit.
				_ = tx.ReadWord(cells[i%len(cells)], cellV)
				runtime.Gosched() // hold read visibility across a reschedule
				for c := 0; c < len(cells); c++ {
					_ = tx.ReadWord(cells[c], cellV)
				}
			},
			verify: func(cells []*stm.Object, ops uint64) error {
				for i, c := range cells {
					if got := stm.CommittedWord(c, cellV); got != 0 {
						return fmt.Errorf("cell %d = %d after a read-only run", i, got)
					}
				}
				return nil
			},
		},
		{
			// Read fan-out over 4 cells with a migrating write-hot cell, forcing invisible<->visible mode flips.
			Name:  "invis-flipflop",
			cells: 4,
			body: func(tx *stm.Tx, cells []*stm.Object, w, i int) {
				// Every phaseLen ops the write-hot cell moves to the next
				// index: each site alternates between read-mostly (the
				// scorer flips it invisible) and write-hot (writes and
				// validation aborts crush it back to visible). The adaptive
				// tier has to keep re-learning, and its mistakes are bounded
				// by the crush-on-abort rule — one validation abort per
				// site per migration, not one per transaction.
				const phaseLen = 64
				p := (i / phaseLen) % len(cells)
				if i%8 == 0 {
					v := tx.ReadWord(cells[p], cellV)
					tx.WriteWord(cells[p], cellV, v+1)
				} else {
					for c := 0; c < len(cells); c++ {
						if c != p {
							_ = tx.ReadWord(cells[c], cellV)
						}
					}
				}
				runtime.Gosched() // keep the phases of the workers interleaved
			},
		},
		{
			// Every transaction write-locks two cells in global order (distinct queues, two-phase release).
			Name:  "write-heavy",
			cells: 4,
			body: func(tx *stm.Tx, cells []*stm.Object, w, i int) {
				// Two locks per transaction, always in ascending index
				// order (no deadlocks); the pair rotates so all four
				// queues stay live and a release regularly wakes two
				// queues at once.
				a := i % len(cells)
				b := (i + 1) % len(cells)
				if b < a {
					a, b = b, a
				}
				va := tx.ReadWord(cells[a], cellV)
				tx.WriteWord(cells[a], cellV, va+1)
				runtime.Gosched()
				vb := tx.ReadWord(cells[b], cellV)
				tx.WriteWord(cells[b], cellV, vb+1)
			},
		},
		{
			// Read-yield-write on one shared cell, forcing concurrent read holders into dueling upgrades.
			Name:  "upgrade-duel",
			cells: 1,
			body: func(tx *stm.Tx, cells []*stm.Object, w, i int) {
				v := tx.ReadWord(cells[0], cellV)
				runtime.Gosched() // hold the read lock so another reader can join, then duel
				tx.WriteWord(cells[0], cellV, v+1)
			},
			verify: func(cells []*stm.Object, ops uint64) error {
				if got := stm.CommittedWord(cells[0], cellV); got != ops {
					return fmt.Errorf("counter = %d after %d committed increments (duel lost an update)", got, ops)
				}
				return nil
			},
		},
		{
			// Each transaction batch-acquires a rotating 3-cell window of an 8-cell set, yielding with the whole batch held.
			Name:  "batch-chain",
			cells: 8,
			body: func(tx *stm.Tx, cells []*stm.Object, w, i int) {
				// Workers batch overlapping windows starting at rotating,
				// *unsorted* bases — exactly the shape that deadlocks with
				// naive in-order blocking acquisition. AcquireBatch's one
				// sorted order keeps it live, and the window overlap makes
				// batches queue behind each other regularly. The first
				// cell's increment goes through ReadWordForWrite so the
				// declared-intent path is exercised under contention too.
				const window = 3
				base := (w*5 + i) % len(cells)
				accs := [window]stm.BatchAccess{}
				for j := 0; j < window; j++ {
					accs[j] = stm.BatchAccess{Obj: cells[(base+j)%len(cells)], Field: cellV, Write: true}
				}
				tx.AcquireBatch(accs[:])
				runtime.Gosched() // hold the whole batch across a reschedule
				v := tx.ReadWordForWrite(cells[base], cellV)
				cells[base].SetRawWord(cellV, v+1)
				for j := 1; j < window; j++ {
					c := cells[(base+j)%len(cells)]
					c.SetRawWord(cellV, c.RawWord(cellV)+1)
				}
			},
			verify: func(cells []*stm.Object, ops uint64) error {
				var sum uint64
				for _, c := range cells {
					sum += stm.CommittedWord(c, cellV)
				}
				if sum != 3*ops {
					return fmt.Errorf("cell set sums to %d after %d committed 3-cell batches", sum, ops)
				}
				return nil
			},
		},
		{
			// Read-modify-write over an 8-cell hot set, yielding while the read lock is held.
			Name:  "rmw-hotset",
			cells: 8,
			body: func(tx *stm.Tx, cells []*stm.Object, w, i int) {
				// Each worker sweeps the hot set at its own stride, so any
				// pair of workers keeps colliding on some cell but the
				// contention moves around — the adaptive promoter has to
				// learn several sites at once, not one.
				c := cells[(w*7+i)%len(cells)]
				v := tx.ReadWord(c, cellV)
				runtime.Gosched() // hold the read lock, inviting a duel
				tx.WriteWord(c, cellV, v+1)
			},
			verify: func(cells []*stm.Object, ops uint64) error {
				var sum uint64
				for _, c := range cells {
					sum += stm.CommittedWord(c, cellV)
				}
				if sum != ops {
					return fmt.Errorf("hot set sums to %d after %d committed increments", sum, ops)
				}
				return nil
			},
		},
	}
}

// Result is the outcome of one (mix, threads) cell.
type Result struct {
	Mix        string
	Threads    int
	Ops        uint64
	Elapsed    time.Duration
	TxnsPerSec float64
	// Contended-path counters of the run (always exact).
	Aborts    uint64
	Contended uint64
	CASFails  uint64
	Deadlocks uint64
	SlotWaits uint64
	// Read-bias counters (bias.go): grants are reads served by the
	// reader-slot path, revokes are writers tearing the bias down.
	BiasGrants     uint64
	BiasRevokes    uint64
	BiasWriteThrus uint64
	// Invisible-read counters (site.go/readset.go): InvisReads are
	// reads served by the optimistic TL2-style tier (no shared-memory
	// store at all), ValidationAborts are commit-time read-set
	// validation failures, ModeFlips are per-site read-mode threshold
	// crossings (visible<->invisible) by the adaptive scorer.
	InvisReads       uint64
	ValidationAborts uint64
	ModeFlips        uint64
	// Caller-directed fast-path counters (batch.go): BatchAcquires are
	// multi-word AcquireBatch calls, BatchWords the distinct lock words
	// they covered, IntentHints the reads carrying declared write intent.
	BatchAcquires uint64
	BatchWords    uint64
	IntentHints   uint64
}

// Run executes totalOps transactions of the mix spread over the given
// number of worker goroutines against a fresh runtime, and returns the
// cell result. It panics on a verification failure — a scalability
// number measured over lost updates is worse than no number.
func Run(m Mix, threads, totalOps int) Result {
	// The runtime that ships, flight recorder included: it records only
	// contention events (a park, a grant, a deadlock), which cost
	// nothing next to the wait they mark, so the mixes measure the STM
	// as every caller runs it.
	rt := stm.NewRuntime()
	cells := make([]*stm.Object, m.cells)
	for i := range cells {
		cells[i] = stm.NewCommitted(cellClass)
	}

	var next atomic.Uint64 // global op budget, claimed one at a time
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				if next.Add(1) > uint64(totalOps) {
					return
				}
				runMixTxn(rt, m, cells, w, i)
				i++
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	snap := rt.Stats().Snapshot()
	ops := snap.Commits
	if m.verify != nil {
		if err := m.verify(cells, ops); err != nil {
			panic("scalebench: " + m.Name + ": " + err.Error())
		}
	}
	return Result{
		Mix:              m.Name,
		Threads:          threads,
		Ops:              ops,
		Elapsed:          elapsed,
		TxnsPerSec:       float64(ops) / elapsed.Seconds(),
		Aborts:           snap.Aborts,
		Contended:        snap.Contended,
		CASFails:         snap.CASFail,
		Deadlocks:        snap.Deadlocks,
		SlotWaits:        snap.SlotWaits,
		BiasGrants:       snap.BiasGrants,
		BiasRevokes:      snap.BiasRevokes,
		BiasWriteThrus:   snap.BiasWriteThrus,
		InvisReads:       snap.InvisReads,
		ValidationAborts: snap.ValidationAborts,
		ModeFlips:        snap.ModeFlips,
		BatchAcquires:    snap.BatchAcquires,
		BatchWords:       snap.BatchWords,
		IntentHints:      snap.IntentHints,
	}
}

// runMixTxn runs one transaction of the mix with the SBD retry
// discipline: Reset and replay on abort, keeping the original ticket so
// the transaction ages toward victory.
func runMixTxn(rt *stm.Runtime, m Mix, cells []*stm.Object, w, i int) {
	tx := rt.Begin()
	for {
		ok := func() (ok bool) {
			defer func() {
				if r := recover(); r != nil {
					if ab, is := r.(*stm.Aborted); is && ab.Tx == tx {
						ok = false
						return
					}
					panic(r)
				}
			}()
			m.body(tx, cells, w, i)
			// Commit inside the recovery scope: a section that read
			// invisibly revalidates at commit time and may abort there.
			tx.Commit()
			return true
		}()
		if ok {
			return
		}
		tx.Reset()
	}
}
