package sched

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stm"
)

// Scenarios are workloads run under the scheduler. The directed
// scenarios force the protocol corners the paper's correctness argument
// rests on — a deadlock cycle, a dueling write-upgrade, a queue
// handoff, slot-pool exhaustion and lease handoff — so every round
// exercises them regardless of what the random walk happens to hit; a
// randomized transfer workload explores everything else (abort/undo
// consistency, mixed read/write contention) under the schedule and
// faults the policy chooses.

// Scenario is one workload: Build creates the worker bodies against a
// fresh runtime and returns an optional post-run consistency check
// (run after all workers finished, outside any transaction).
type Scenario struct {
	Name string
	// MaxTxns overrides stm.Options.MaxConcurrentTxns (0 = default).
	MaxTxns int
	Build   func(rt *stm.Runtime, s *Scheduler) ([]Worker, func() error)
}

// Result is the outcome of one scenario run.
type Result struct {
	Scenario  string
	Seed      uint64
	Err       error
	Decisions []Decision
	Coverage  Coverage
	Events    []string // diagnostic tail of the event log
}

// RunScenario executes one scenario under the given policy and returns
// the outcome. The runtime and scheduler are fresh per run, so a Result
// is a pure function of (scenario, policy).
func RunScenario(sc Scenario, pol Policy, cfg Config) Result {
	cfg.Policy = pol
	s := New(cfg)
	rt := stm.NewRuntimeOpts(stm.Options{Hooks: s, MaxConcurrentTxns: sc.MaxTxns})
	s.Attach(rt)
	workers, post := sc.Build(rt, s)
	err := s.Run(workers...)
	if err == nil {
		// Quiescent sweep: all workers done, nothing in flight.
		err = rt.CheckInvariants()
	}
	if err == nil && post != nil {
		err = post()
	}
	return Result{
		Scenario:  sc.Name,
		Err:       err,
		Decisions: s.Decisions(),
		Coverage:  s.Coverage(),
		Events:    s.RecentEvents(),
	}
}

// Retry runs body as a transaction, resetting and retrying on abort the
// way the SBD layer does. RetryBackoff between attempts yields exactly
// once at PointBackoff under the harness, so the policy can interleave
// the retry and replayed schedules stay deterministic.
func Retry(s *Scheduler, rt *stm.Runtime, body func(tx *stm.Tx)) {
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
			body(tx)
			// Commit inside the recovery scope: commit-time read-set
			// validation (stm/readset.go) may abort the transaction.
			tx.Commit()
			return true
		}()
		if ok {
			return
		}
		tx.Reset()
		tx.RetryBackoff()
	}
}

var cellClass = stm.NewClass("sched.cell", stm.FieldSpec{Name: "v", Kind: stm.KindWord})
var cellV = cellClass.Field("v")

// ScenarioDeadlock forces a two-transaction deadlock cycle: each worker
// write-locks its first object, waits at a barrier until both hold, then
// locks the other's object. The detector must abort the younger and let
// both eventually commit.
func ScenarioDeadlock() Scenario {
	return Scenario{
		Name: "deadlock",
		Build: func(rt *stm.Runtime, s *Scheduler) ([]Worker, func() error) {
			a, b := stm.NewCommitted(cellClass), stm.NewCommitted(cellClass)
			s.Watch(a, b)
			mk := func(name string, first, second *stm.Object) Worker {
				return Worker{Name: name, Body: func() {
					arm := true
					Retry(s, rt, func(tx *stm.Tx) {
						tx.WriteWord(first, cellV, tx.ReadWord(first, cellV)+1)
						if arm {
							// Only the first attempt synchronizes; the retry
							// after losing the deadlock runs unconstrained.
							arm = false
							s.Barrier("dl", 2)
						}
						tx.WriteWord(second, cellV, tx.ReadWord(second, cellV)+1)
					})
				}}
			}
			post := func() error {
				for i, o := range []*stm.Object{a, b} {
					if v := stm.CommittedWord(o, cellV); v != 2 {
						return fmt.Errorf("deadlock scenario: object %d = %d, want 2 (lost update)", i, v)
					}
				}
				return nil
			}
			return []Worker{mk("dl-ab", a, b), mk("dl-ba", b, a)}, post
		},
	}
}

// ScenarioDuel forces a dueling write-upgrade (paper §3.3): both workers
// read the same object, synchronize so both hold the read lock, then
// write it. The second upgrader must detect the duel via the U flag and
// the younger must abort; both increments must survive.
func ScenarioDuel() Scenario {
	return Scenario{
		Name: "duel",
		Build: func(rt *stm.Runtime, s *Scheduler) ([]Worker, func() error) {
			o := stm.NewCommitted(cellClass)
			s.Watch(o)
			mk := func(name string) Worker {
				return Worker{Name: name, Body: func() {
					arm := true
					Retry(s, rt, func(tx *stm.Tx) {
						v := tx.ReadWord(o, cellV)
						if arm {
							arm = false
							s.Barrier("duel", 2)
						}
						tx.WriteWord(o, cellV, v+1)
					})
				}}
			}
			post := func() error {
				if v := stm.CommittedWord(o, cellV); v != 2 {
					return fmt.Errorf("duel scenario: object = %d, want 2 (lost update)", v)
				}
				return nil
			}
			return []Worker{mk("duel-0"), mk("duel-1")}, post
		},
	}
}

// ScenarioInevDuel forces a dueling write-upgrade in which one duelist
// is inevitable (paper §3.3 + §3.4): both workers read the same object,
// synchronize so both hold the read lock, then write it. Duel
// resolution normally favors the older ticket, but an inevitable
// transaction must survive REGARDLESS of ticket order — it may have
// externalized irrevocable effects. inevSecond selects which worker
// becomes inevitable, so the round covers the inevitable duelist being
// either party (and, across seeds, either ticket order). The post-run
// check asserts the inevitable worker never aborted: not once, on any
// schedule.
func ScenarioInevDuel(inevSecond bool) Scenario {
	name := "inev-duel-first"
	inev := 0
	if inevSecond {
		name, inev = "inev-duel-second", 1
	}
	return Scenario{
		Name: name,
		Build: func(rt *stm.Runtime, s *Scheduler) ([]Worker, func() error) {
			o := stm.NewCommitted(cellClass)
			s.Watch(o)
			var attempts [2]int // workers are serialized; post runs after both
			mk := func(i int) Worker {
				return Worker{Name: fmt.Sprintf("%s-%d", name, i), Body: func() {
					arm := true
					Retry(s, rt, func(tx *stm.Tx) {
						attempts[i]++
						if i == inev {
							tx.BecomeInevitable()
						}
						v := tx.ReadWord(o, cellV)
						if arm {
							arm = false
							s.Barrier("inev-duel", 2)
						}
						tx.WriteWord(o, cellV, v+1)
					})
				}}
			}
			post := func() error {
				if v := stm.CommittedWord(o, cellV); v != 2 {
					return fmt.Errorf("%s: object = %d, want 2 (lost update)", name, v)
				}
				if attempts[inev] != 1 {
					return fmt.Errorf("%s: inevitable worker ran %d attempts, want 1 (an inevitable transaction aborted)",
						name, attempts[inev])
				}
				if attempts[1-inev] < 1 {
					return fmt.Errorf("%s: other worker never ran", name)
				}
				return nil
			}
			return []Worker{mk(0), mk(1)}, post
		},
	}
}

// ScenarioHandoff forces a queue handoff: the holder keeps a write lock
// until the waiter is provably enqueued, then commits; the release must
// grant the lock to the queue head.
func ScenarioHandoff() Scenario {
	return Scenario{
		Name: "handoff",
		Build: func(rt *stm.Runtime, s *Scheduler) ([]Worker, func() error) {
			o := stm.NewCommitted(cellClass)
			s.Watch(o)
			waiterID := -1 // written before the barrier, read after: token-ordered
			holder := Worker{Name: "holder", Body: func() {
				Retry(s, rt, func(tx *stm.Tx) {
					tx.WriteWord(o, cellV, tx.ReadWord(o, cellV)+1)
					s.Barrier("holding", 2)
					s.AwaitBlocked(waiterID)
				})
			}}
			waiter := Worker{Name: "waiter", Body: func() {
				Retry(s, rt, func(tx *stm.Tx) {
					waiterID = tx.ID()
					s.Barrier("holding", 2)
					tx.WriteWord(o, cellV, tx.ReadWord(o, cellV)+1)
				})
			}}
			post := func() error {
				if v := stm.CommittedWord(o, cellV); v != 2 {
					return fmt.Errorf("handoff scenario: object = %d, want 2", v)
				}
				return nil
			}
			return []Worker{holder, waiter}, post
		},
	}
}

// ScenarioShardedRelease drives two independent holder/waiter pairs on
// two different locks, so two release paths (each a clear-CAS plus a
// wake of its own queue) interleave step by step across different
// detector shards. Under the global-mutex detector these releases
// serialized; with per-queue locking every interleaving of the two
// grant scans must still hand each lock to exactly its own waiter.
func ScenarioShardedRelease() Scenario {
	return Scenario{
		Name: "sharded-release",
		Build: func(rt *stm.Runtime, s *Scheduler) ([]Worker, func() error) {
			a, b := stm.NewCommitted(cellClass), stm.NewCommitted(cellClass)
			s.Watch(a, b)
			cells := [2]*stm.Object{a, b}
			wid := [2]int{-1, -1} // written before the barrier, read after
			mkHolder := func(i int) Worker {
				o := cells[i]
				return Worker{Name: fmt.Sprintf("shr-h%d", i), Body: func() {
					arm := true
					Retry(s, rt, func(tx *stm.Tx) {
						tx.WriteWord(o, cellV, tx.ReadWord(o, cellV)+1)
						if arm {
							arm = false
							s.Barrier("shr-held", 4)
							s.AwaitBlocked(wid[i])
						}
					})
				}}
			}
			mkWaiter := func(i int) Worker {
				o := cells[i]
				return Worker{Name: fmt.Sprintf("shr-w%d", i), Body: func() {
					arm := true
					Retry(s, rt, func(tx *stm.Tx) {
						wid[i] = tx.ID()
						if arm {
							arm = false
							s.Barrier("shr-held", 4)
						}
						tx.WriteWord(o, cellV, tx.ReadWord(o, cellV)+1)
					})
				}}
			}
			post := func() error {
				for i, o := range cells {
					if v := stm.CommittedWord(o, cellV); v != 2 {
						return fmt.Errorf("sharded-release scenario: object %d = %d, want 2", i, v)
					}
				}
				return nil
			}
			return []Worker{mkHolder(0), mkHolder(1), mkWaiter(0), mkWaiter(1)}, post
		},
	}
}

// ScenarioIDPool runs three workers against a runtime capped at two
// lock-word slots. Begin itself never blocks (identity is virtual), but
// each increment's first lock acquisition must lease a slot, so the
// third section in flight parks in the slot pool's overflow tier and
// resumes on a lease handoff (EvSlotGrant). The name predates the
// identity split; it keeps its list position so per-index policy seeds
// are stable.
func ScenarioIDPool() Scenario {
	return Scenario{
		Name:    "idpool",
		MaxTxns: 2,
		Build: func(rt *stm.Runtime, s *Scheduler) ([]Worker, func() error) {
			const rounds = 3
			objs := make([]*stm.Object, 3)
			for i := range objs {
				objs[i] = stm.NewCommitted(cellClass)
			}
			s.Watch(objs...)
			mk := func(i int) Worker {
				o := objs[i]
				return Worker{Name: fmt.Sprintf("idp-%d", i), Body: func() {
					for r := 0; r < rounds; r++ {
						Retry(s, rt, func(tx *stm.Tx) {
							tx.WriteWord(o, cellV, tx.ReadWord(o, cellV)+1)
						})
						s.Step()
					}
				}}
			}
			post := func() error {
				for i, o := range objs {
					if v := stm.CommittedWord(o, cellV); v != rounds {
						return fmt.Errorf("idpool scenario: object %d = %d, want %d", i, v, rounds)
					}
				}
				return nil
			}
			return []Worker{mk(0), mk(1), mk(2)}, post
		},
	}
}

// ScenarioTransfer is the randomized workload: three workers move money
// between shared accounts in read-modify-write transactions with
// schedule-dependent lock orders. It exercises abort/undo consistency —
// the post-run check is conservation of the total balance.
func ScenarioTransfer(seed uint64) Scenario {
	return Scenario{
		Name: "transfer",
		Build: func(rt *stm.Runtime, s *Scheduler) ([]Worker, func() error) {
			const (
				nAccounts = 5
				initial   = 100
				nWorkers  = 3
				nOps      = 8
			)
			accts := make([]*stm.Object, nAccounts)
			for i := range accts {
				accts[i] = stm.NewCommitted(cellClass)
				stm.SetCommittedWord(accts[i], cellV, initial)
			}
			s.Watch(accts...)
			mk := func(w int) Worker {
				rng := newPRNG(mix(seed, uint64(w)))
				return Worker{Name: fmt.Sprintf("xfer-%d", w), Body: func() {
					for op := 0; op < nOps; op++ {
						src := rng.intn(nAccounts)
						dst := rng.intn(nAccounts - 1)
						if dst >= src {
							dst++
						}
						amt := uint64(1 + rng.intn(7))
						Retry(s, rt, func(tx *stm.Tx) {
							sv := tx.ReadWord(accts[src], cellV)
							if sv < amt {
								return // insufficient funds: commit empty
							}
							dv := tx.ReadWord(accts[dst], cellV)
							tx.WriteWord(accts[src], cellV, sv-amt)
							s.Step()
							tx.WriteWord(accts[dst], cellV, dv+amt)
						})
						s.Step()
					}
				}}
			}
			post := func() error {
				var total uint64
				for _, o := range accts {
					total += stm.CommittedWord(o, cellV)
				}
				if total != nAccounts*initial {
					return fmt.Errorf("transfer scenario: total balance %d, want %d (undo/abort corrupted state)",
						total, nAccounts*initial)
				}
				return nil
			}
			ws := make([]Worker, nWorkers)
			for w := range ws {
				ws[w] = mk(w)
			}
			return ws, post
		},
	}
}

// ScenarioUpgradeStorm forces the RMW pathology the adaptive promoter
// exists for: three workers read-modify-write the same word for several
// rounds, the first attempts synchronized so all three hold the read
// lock before any upgrade. The first round duels (the checker asserts
// youngest-victim on every EvDuel it observes), the duel losses boost
// the site's promotion hint, and later rounds acquire in write mode up
// front; every abort replays through RetryBackoff's PointBackoff yield,
// so the whole storm — duels, promotions, backoffs — replays
// deterministically from a decision trace.
func ScenarioUpgradeStorm() Scenario {
	return Scenario{
		Name: "upgrade-storm",
		Build: func(rt *stm.Runtime, s *Scheduler) ([]Worker, func() error) {
			o := stm.NewCommitted(cellClass)
			s.Watch(o)
			const workers, rounds = 3, 3
			mk := func(i int) Worker {
				return Worker{Name: fmt.Sprintf("storm-%d", i), Body: func() {
					arm := true
					for r := 0; r < rounds; r++ {
						Retry(s, rt, func(tx *stm.Tx) {
							v := tx.ReadWord(o, cellV)
							if arm {
								// Only the very first attempt synchronizes:
								// a retry or a later round barriering here
								// would deadlock against a worker parked on
								// the lock this transaction holds.
								arm = false
								s.Barrier("storm", workers)
							}
							tx.WriteWord(o, cellV, v+1)
						})
						s.Step()
					}
				}}
			}
			post := func() error {
				if v := stm.CommittedWord(o, cellV); v != workers*rounds {
					return fmt.Errorf("upgrade-storm scenario: counter = %d, want %d (lost update)",
						v, workers*rounds)
				}
				return nil
			}
			return []Worker{mk(0), mk(1), mk(2)}, post
		},
	}
}

// ScenarioCoreAtomic drives the SBD layer (core.Thread sections) rather
// than raw transactions: three SBD threads increment two shared cells
// in conflicting orders inside th.Atomic sections, so aborts unwind
// through core's replay machinery instead of the harness's Retry.
func ScenarioCoreAtomic() Scenario {
	return Scenario{
		Name: "core-atomic",
		Build: func(rt *stm.Runtime, s *Scheduler) ([]Worker, func() error) {
			a, b := stm.NewCommitted(cellClass), stm.NewCommitted(cellClass)
			s.Watch(a, b)
			const nOps = 3
			mk := func(w int, first, second *stm.Object) Worker {
				// One SBD runtime per worker: Main waits on its runtime's
				// thread group, and that park is invisible to the
				// scheduler, so workers must not share one group.
				crt := core.FromSTM(rt)
				return Worker{Name: fmt.Sprintf("core-%d", w), Body: func() {
					crt.Main(func(th *core.Thread) {
						for op := 0; op < nOps; op++ {
							th.AtomicSplit(func(tx *stm.Tx) {
								tx.WriteWord(first, cellV, tx.ReadWord(first, cellV)+1)
								tx.WriteWord(second, cellV, tx.ReadWord(second, cellV)+1)
							})
							s.Step()
						}
					})
				}}
			}
			post := func() error {
				for i, o := range []*stm.Object{a, b} {
					if v := stm.CommittedWord(o, cellV); v != 3*nOps {
						return fmt.Errorf("core-atomic scenario: object %d = %d, want %d", i, v, 3*nOps)
					}
				}
				return nil
			}
			return []Worker{mk(0, a, b), mk(1, b, a), mk(2, a, b)}, post
		},
	}
}

// ScenarioBiasRevoke forces the read-bias revocation protocol (bias.go):
// the shared cell's site is seeded read-biased, two readers publish
// reader slots and hold them across a barrier, and a writer — whose own
// read also lands in a slot — upgrades, revoking the bias and draining
// the readers. The policy's interleaving at PointBiasPublish covers
// both orderings of the publish/revoke race: a reader parked between
// its slot store and its marker verify either survives (the revoker
// waits for it) or retracts and falls back to the shared-CAS path,
// enqueuing FIFO behind the writer. Readers assert snapshot consistency
// within a transaction and monotonicity across rounds — a biased read
// that a revoking writer failed to wait for would break both.
func ScenarioBiasRevoke() Scenario {
	return Scenario{
		Name: "bias-revoke",
		Build: func(rt *stm.Runtime, s *Scheduler) ([]Worker, func() error) {
			o := stm.NewCommitted(cellClass)
			s.Watch(o)
			rt.SeedReadBias(cellClass, cellV)
			const readers, rounds = 2, 2
			var consistency error
			last := make([]uint64, readers)
			mkReader := func(i int) Worker {
				return Worker{Name: fmt.Sprintf("br-r%d", i), Body: func() {
					arm := true
					for r := 0; r < rounds; r++ {
						Retry(s, rt, func(tx *stm.Tx) {
							v := tx.ReadWord(o, cellV)
							if arm {
								arm = false
								s.Barrier("bias", readers+1)
							}
							if v2 := tx.ReadWord(o, cellV); v2 != v && consistency == nil {
								consistency = fmt.Errorf("bias-revoke: reader %d saw %d then %d in one transaction", i, v, v2)
							}
							if v < last[i] && consistency == nil {
								consistency = fmt.Errorf("bias-revoke: reader %d saw %d after %d (stale biased read)", i, v, last[i])
							}
							last[i] = v
						})
						s.Step()
					}
				}}
			}
			writer := Worker{Name: "br-w", Body: func() {
				arm := true
				for r := 0; r < rounds; r++ {
					Retry(s, rt, func(tx *stm.Tx) {
						// The read publishes a reader slot of its own (the
						// site is biased), so the write below exercises the
						// upgrade-from-bias path before it can revoke.
						v := tx.ReadWord(o, cellV)
						if arm {
							arm = false
							s.Barrier("bias", readers+1)
						}
						tx.WriteWord(o, cellV, v+1)
					})
					s.Step()
				}
			}}
			post := func() error {
				if consistency != nil {
					return consistency
				}
				if v := stm.CommittedWord(o, cellV); v != rounds {
					return fmt.Errorf("bias-revoke: counter = %d, want %d (lost update across revocation)", v, rounds)
				}
				return nil
			}
			return []Worker{mkReader(0), mkReader(1), writer}, post
		},
	}
}

// ScenarioSlotLease forces slot-lease exhaustion with a choreographed
// handoff: a runtime capped at two slots, two holders that keep their
// slots (locks held) until both overflow waiters are provably parked in
// the slot pool, then commit. The releases must hand the two leases to
// the waiters in FIFO order without losing a wakeup — a lost handoff
// shows up as a global stall, a double-grant trips the pool's lease
// invariant, and the post-run check asserts every section committed and
// that the overflow tier was actually exercised.
func ScenarioSlotLease() Scenario {
	return Scenario{
		Name:    "slot-lease",
		MaxTxns: 2,
		Build: func(rt *stm.Runtime, s *Scheduler) ([]Worker, func() error) {
			objs := make([]*stm.Object, 4)
			for i := range objs {
				objs[i] = stm.NewCommitted(cellClass)
			}
			s.Watch(objs...)
			wid := [4]int{-1, -1, -1, -1} // written before the barrier, read after
			mkHolder := func(i int) Worker {
				o := objs[i]
				return Worker{Name: fmt.Sprintf("sl-h%d", i), Body: func() {
					arm := true
					Retry(s, rt, func(tx *stm.Tx) {
						tx.WriteWord(o, cellV, tx.ReadWord(o, cellV)+1) // leases a slot
						if arm {
							arm = false
							s.Barrier("sl-held", 4)
							// Exactly one holder observes the waiters parking
							// (after the first handoff the observation would
							// never re-fire); the other holds its slot at the
							// second barrier until the observation is done, so
							// both commits are real lease handoffs.
							if i == 0 {
								s.AwaitSlotBlocked(wid[2])
								s.AwaitSlotBlocked(wid[3])
							}
							s.Barrier("sl-go", 2)
						}
					})
				}}
			}
			mkWaiter := func(i int) Worker {
				o := objs[i]
				return Worker{Name: fmt.Sprintf("sl-w%d", i), Body: func() {
					arm := true
					Retry(s, rt, func(tx *stm.Tx) {
						wid[i] = tx.ID() // Begin is identity-only: no slot yet
						if arm {
							arm = false
							s.Barrier("sl-held", 4)
						}
						tx.WriteWord(o, cellV, tx.ReadWord(o, cellV)+1) // parks for a lease
					})
				}}
			}
			post := func() error {
				for i, o := range objs {
					if v := stm.CommittedWord(o, cellV); v != 1 {
						return fmt.Errorf("slot-lease scenario: object %d = %d, want 1 (lost section)", i, v)
					}
				}
				if snap := rt.Stats().Snapshot(); snap.SlotWaits < 2 {
					return fmt.Errorf("slot-lease scenario: SlotWaits = %d, want >= 2 (overflow tier not exercised)", snap.SlotWaits)
				}
				return nil
			}
			return []Worker{mkHolder(0), mkHolder(1), mkWaiter(2), mkWaiter(3)}, post
		},
	}
}

// ScenarioInvisibleValidation forces the TL2-style optimistic tier
// (site.go/readset.go) through its one dangerous window: a reader
// takes an invisible read — no lock word bit, no reader slot, nothing
// a writer could see — and a writer commits to the same word before
// the reader validates. The commit-time read-set validation must abort
// the reader, the abort must crush the site score so the replay reads
// visibly, and the replay must observe the writer's value. The
// interleaving is pinned by barriers, so the validation abort happens
// on every schedule; the policy still chooses how the version stamp
// (PointVersionStamp) and the validation scan (PointValidate)
// interleave with everything else.
func ScenarioInvisibleValidation() Scenario {
	return Scenario{
		Name: "invisible-validation",
		Build: func(rt *stm.Runtime, s *Scheduler) ([]Worker, func() error) {
			o := stm.NewCommitted(cellClass)
			s.Watch(o)
			rt.SeedInvisible(cellClass, cellV)
			var seen []uint64
			reader := Worker{Name: "iv-r", Body: func() {
				// First section installs the slab's version array (the
				// installing read itself stays visible by design).
				Retry(s, rt, func(tx *stm.Tx) { _ = tx.ReadWord(o, cellV) })
				arm := true
				Retry(s, rt, func(tx *stm.Tx) {
					v := tx.ReadWord(o, cellV)
					seen = append(seen, v)
					if arm {
						arm = false
						s.Barrier("iv-read", 2)    // invisible read taken
						s.Barrier("iv-written", 2) // writer has committed
					}
				})
			}}
			writer := Worker{Name: "iv-w", Body: func() {
				s.Barrier("iv-read", 2)
				Retry(s, rt, func(tx *stm.Tx) {
					tx.WriteWord(o, cellV, tx.ReadWord(o, cellV)+1)
				})
				s.Barrier("iv-written", 2)
			}}
			post := func() error {
				if len(seen) != 2 || seen[0] != 0 || seen[1] != 1 {
					return fmt.Errorf("invisible-validation: reader attempts saw %v, want [0 1]", seen)
				}
				if v := stm.CommittedWord(o, cellV); v != 1 {
					return fmt.Errorf("invisible-validation: counter = %d, want 1", v)
				}
				snap := rt.Stats().Snapshot()
				if snap.ValidationAborts != 1 {
					return fmt.Errorf("invisible-validation: ValidationAborts = %d, want 1", snap.ValidationAborts)
				}
				if snap.InvisReads == 0 {
					return fmt.Errorf("invisible-validation: no invisible read taken")
				}
				return nil
			}
			return []Worker{reader, writer}, post
		},
	}
}

// ScenarioBatchAcquire drives the sorted multi-word acquire path
// (stm.Tx.AcquireBatch) under the scheduler: two workers batch the same
// two array elements in OPPOSITE program order, then update both.
// Because AcquireBatch sorts its word set by address, both batches
// acquire in the same global order, so the classic ABBA deadlock cannot
// form no matter how the policy interleaves the per-word CASes
// (PointBatchCAS) — the post-check asserts the detector never fired and
// both updates survived every schedule.
func ScenarioBatchAcquire() Scenario {
	return Scenario{
		Name: "batch-acquire",
		Build: func(rt *stm.Runtime, s *Scheduler) ([]Worker, func() error) {
			arr := stm.NewCommittedArray(stm.KindWord, 4)
			s.Watch(arr)
			mk := func(name string, first, second int) Worker {
				return Worker{Name: name, Body: func() {
					Retry(s, rt, func(tx *stm.Tx) {
						tx.AcquireBatch([]stm.BatchAccess{
							{Obj: arr, Index: first, IsElem: true, Write: true},
							{Obj: arr, Index: second, IsElem: true, Write: true},
						})
						// Both words are write-held: the updates run raw.
						arr.SetRawElem(first, arr.RawElem(first)+1)
						arr.SetRawElem(second, arr.RawElem(second)+1)
					})
				}}
			}
			post := func() error {
				for _, i := range []int{0, 2} {
					if v := arr.RawElem(i); v != 2 {
						return fmt.Errorf("batch-acquire: elem %d = %d, want 2 (lost update)", i, v)
					}
				}
				snap := rt.Stats().Snapshot()
				if snap.Deadlocks != 0 {
					return fmt.Errorf("batch-acquire: %d deadlocks resolved; sorted batches must not cycle", snap.Deadlocks)
				}
				if snap.BatchAcquires < 2 {
					return fmt.Errorf("batch-acquire: BatchAcquires = %d, want >= 2", snap.BatchAcquires)
				}
				return nil
			}
			return []Worker{mk("ba-02", 0, 2), mk("ba-20", 2, 0)}, post
		},
	}
}

// RoundScenarios returns the scenario list of one stress round.
func RoundScenarios(seed uint64) []Scenario {
	return []Scenario{
		ScenarioDeadlock(),
		ScenarioDuel(),
		ScenarioInevDuel(false),
		ScenarioInevDuel(true),
		ScenarioHandoff(),
		ScenarioShardedRelease(),
		ScenarioIDPool(),
		ScenarioCoreAtomic(),
		ScenarioTransfer(seed),
		// Appended last so the per-index policy seeds of the scenarios
		// above stay what they were before the storm existed.
		ScenarioUpgradeStorm(),
		ScenarioBiasRevoke(),
		ScenarioSlotLease(),
		ScenarioInvisibleValidation(),
		ScenarioBatchAcquire(),
	}
}

// RunRound runs every scenario of a round under independent
// deterministic policies derived from seed, and enforces the round's
// coverage floor: at least one resolved deadlock, one dueling upgrade,
// and one queue handoff must have been observed — the directed
// scenarios guarantee them, so a shortfall means the protocol silently
// stopped taking those paths.
func RunRound(seed uint64, cfg Config) ([]Result, Coverage, error) {
	var results []Result
	var total Coverage
	for i, sc := range RoundScenarios(seed) {
		scSeed := mix(seed, uint64(i)*1000)
		pol := NewRandomPolicy(scSeed)
		res := RunScenario(sc, pol, cfg)
		res.Seed = scSeed
		total.Add(res.Coverage)
		results = append(results, res)
		if res.Err != nil {
			return results, total, fmt.Errorf("scenario %s (seed %d): %w", sc.Name, scSeed, res.Err)
		}
	}
	if total.Deadlocks == 0 || total.Duels == 0 || total.Grants == 0 {
		return results, total, fmt.Errorf("coverage floor violated: %s", total)
	}
	return results, total, nil
}
