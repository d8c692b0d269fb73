package stm

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// retryLoop runs body as a transaction, resetting and retrying on abort,
// the way the SBD layer does.
func retryLoop(rt *Runtime, body func(tx *Tx)) {
	tx := rt.Begin()
	for {
		done := func() (ok bool) {
			defer func() {
				if r := recover(); r != nil {
					if ab, isAbort := r.(*Aborted); isAbort && ab.Tx == tx {
						ok = false
						return
					}
					panic(r)
				}
			}()
			body(tx)
			// Commit inside the recovery scope: commit-time read-set
			// validation may abort (readset.go).
			tx.Commit()
			return true
		}()
		if done {
			return
		}
		tx.Reset()
	}
}

func TestWriterExcludesWriter(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("C", FieldSpec{Name: "v", Kind: KindWord})
	o := NewCommitted(c)
	v := c.Field("v")

	tx1 := rt.Begin()
	tx1.WriteInt(o, v, 1)

	entered := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		close(entered)
		retryLoop(rt, func(tx *Tx) { tx.WriteInt(o, v, 2) })
		close(finished)
	}()
	<-entered
	select {
	case <-finished:
		t.Fatal("second writer proceeded while write lock held")
	case <-time.After(50 * time.Millisecond):
	}
	tx1.Commit()
	select {
	case <-finished:
	case <-time.After(2 * time.Second):
		t.Fatal("second writer never granted after release")
	}

	check := rt.Begin()
	if check.ReadInt(o, v) != 2 {
		t.Fatal("second write lost")
	}
	check.Commit()
}

func TestReadersShare(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("C", FieldSpec{Name: "v", Kind: KindWord})
	o := NewCommitted(c)
	v := c.Field("v")
	seed := rt.Begin()
	seed.WriteInt(o, v, 3)
	seed.Commit()

	// Many concurrent readers must all proceed without blocking.
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan string, n)
	hold := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := rt.Begin()
			if tx.ReadInt(o, v) != 3 {
				errs <- "reader saw wrong value"
			}
			<-hold // all readers hold their read locks simultaneously
			tx.Commit()
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(hold)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestWriterWaitsForReaders(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("C", FieldSpec{Name: "v", Kind: KindWord})
	o := NewCommitted(c)
	v := c.Field("v")

	rtx := rt.Begin()
	_ = rtx.ReadInt(o, v)

	finished := make(chan struct{})
	go func() {
		retryLoop(rt, func(tx *Tx) { tx.WriteInt(o, v, 9) })
		close(finished)
	}()
	select {
	case <-finished:
		t.Fatal("writer proceeded despite visible reader")
	case <-time.After(50 * time.Millisecond):
	}
	rtx.Commit()
	select {
	case <-finished:
	case <-time.After(2 * time.Second):
		t.Fatal("writer never granted after reader release")
	}
}

func TestUpgradeWaitsForOtherReaders(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("C", FieldSpec{Name: "v", Kind: KindWord})
	o := NewCommitted(c)
	v := c.Field("v")

	other := rt.Begin()
	_ = other.ReadInt(o, v)

	finished := make(chan struct{})
	go func() {
		retryLoop(rt, func(tx *Tx) {
			_ = tx.ReadInt(o, v)
			tx.WriteInt(o, v, 1) // upgrade: must wait for `other`
		})
		close(finished)
	}()
	select {
	case <-finished:
		t.Fatal("upgrade proceeded despite another visible reader")
	case <-time.After(50 * time.Millisecond):
	}
	other.Commit()
	select {
	case <-finished:
	case <-time.After(2 * time.Second):
		t.Fatal("upgrade never granted")
	}
}

func TestDeadlockResolutionAbortsYoungest(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("C", FieldSpec{Name: "v", Kind: KindWord})
	a, b := NewCommitted(c), NewCommitted(c)
	v := c.Field("v")

	older := rt.Begin() // smaller ticket: must survive
	younger := rt.Begin()

	older.WriteInt(a, v, 1)
	younger.WriteInt(b, v, 2)

	olderDone := make(chan struct{})
	go func() {
		// Blocks until younger aborts and releases b.
		older.WriteInt(b, v, 3)
		older.Commit()
		close(olderDone)
	}()
	time.Sleep(50 * time.Millisecond)

	ab := runAborting(t, func() { younger.WriteInt(a, v, 4) })
	if ab == nil {
		t.Fatal("younger transaction was not chosen as deadlock victim")
	}
	if ab.Tx != younger {
		t.Fatal("abort hit the wrong transaction")
	}
	younger.Reset()
	younger.Commit()

	select {
	case <-olderDone:
	case <-time.After(2 * time.Second):
		t.Fatal("older transaction did not complete after victim release")
	}
	if rt.Stats().Snapshot().Deadlocks == 0 {
		t.Fatal("deadlock not counted")
	}

	check := rt.Begin()
	if check.ReadInt(a, v) != 1 || check.ReadInt(b, v) != 3 {
		t.Fatalf("post-deadlock state wrong: a=%d b=%d", check.ReadInt(a, v), check.ReadInt(b, v))
	}
	check.Commit()
}

// The progress rule an aborted section relies on instead of a retry
// delay: a deadlock victim keeps its start ticket (and with it its ID)
// across Reset, so its replay is older than any transaction begun since
// and a later deadlock picks the newcomer, letting the replay commit.
func TestReplayKeepsTicketAndOutlivesNewerRival(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("C", FieldSpec{Name: "v", Kind: KindWord})
	a, b := NewCommitted(c), NewCommitted(c)
	v := c.Field("v")

	older := rt.Begin()
	replay := rt.Begin()
	ticket, id := replay.Ticket(), replay.ID()

	older.WriteInt(a, v, 1)
	replay.WriteInt(b, v, 2)
	olderDone := make(chan struct{})
	go func() {
		older.WriteInt(b, v, 3) // blocks on replay
		older.Commit()
		close(olderDone)
	}()
	waitBlocked(t, rt, older)
	if ab := runAborting(t, func() { replay.WriteInt(a, v, 4) }); ab == nil || ab.Tx != replay {
		t.Fatalf("first deadlock: want the younger transaction as victim, got %+v", ab)
	}
	replay.Reset()
	if replay.Ticket() != ticket || replay.ID() != id {
		t.Fatalf("Reset changed identity: ticket %d -> %d, ID %d -> %d",
			ticket, replay.Ticket(), id, replay.ID())
	}
	select {
	case <-olderDone:
	case <-time.After(2 * time.Second):
		t.Fatal("older transaction did not complete after victim release")
	}

	newer := rt.Begin()
	if newer.Ticket() <= replay.Ticket() {
		t.Fatalf("newer ticket %d not after the replay's %d", newer.Ticket(), replay.Ticket())
	}
	replay.WriteInt(a, v, 5)
	newer.WriteInt(b, v, 6)
	replayDone := make(chan struct{})
	go func() {
		replay.WriteInt(b, v, 7) // blocks on newer
		replay.Commit()
		close(replayDone)
	}()
	waitBlocked(t, rt, replay)
	if ab := runAborting(t, func() { newer.WriteInt(a, v, 8) }); ab == nil || ab.Tx != newer {
		t.Fatalf("second deadlock: want the newer transaction as victim, got %+v", ab)
	}
	newer.Reset()
	newer.AbandonAfterReset()
	select {
	case <-replayDone:
	case <-time.After(2 * time.Second):
		t.Fatal("the replay did not commit after the newer victim released")
	}

	check := rt.Begin()
	if check.ReadInt(a, v) != 5 || check.ReadInt(b, v) != 7 {
		t.Fatalf("final state a=%d b=%d, want the replay's 5 and 7", check.ReadInt(a, v), check.ReadInt(b, v))
	}
	check.Commit()
}

// waitBlocked waits until tx is enqueued on a lock.
func waitBlocked(t *testing.T, rt *Runtime, tx *Tx) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !slices.Contains(rt.BlockedTxns(), tx.ID()) {
		if time.Now().After(deadline) {
			t.Fatalf("transaction %d never blocked", tx.ID())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDuelingUpgradeAbortsYounger(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("C", FieldSpec{Name: "v", Kind: KindWord})
	o := NewCommitted(c)
	v := c.Field("v")

	older := rt.Begin()
	younger := rt.Begin()
	_ = older.ReadInt(o, v)
	_ = younger.ReadInt(o, v)

	olderDone := make(chan struct{})
	go func() {
		older.WriteInt(o, v, 1) // upgrade; blocks on younger's read bit
		older.Commit()
		close(olderDone)
	}()
	time.Sleep(50 * time.Millisecond)

	ab := runAborting(t, func() { younger.WriteInt(o, v, 2) })
	if ab == nil {
		t.Fatal("dueling upgrade did not abort the younger transaction")
	}
	younger.Reset()
	younger.Commit()

	select {
	case <-olderDone:
	case <-time.After(2 * time.Second):
		t.Fatal("older upgrader never granted")
	}
}

// A dueling write-upgrade is a two-member deadlock cycle, and the
// detector is its only resolver: two readers of one word both upgrade,
// one cycle naming both is reported and counted, its victim is the
// younger — or the older when the younger is inevitable — and the
// survivor commits.
func TestDuelIsTwoMemberCycle(t *testing.T) {
	for _, inevYounger := range []bool{false, true} {
		rt := NewRuntime()
		c := NewClass("C", FieldSpec{Name: "v", Kind: KindWord})
		o := NewCommitted(c)
		v := c.Field("v")

		older := rt.Begin()
		younger := rt.Begin()
		if inevYounger {
			younger.BecomeInevitable()
		}
		_ = older.ReadInt(o, v)
		_ = younger.ReadInt(o, v)
		survivor, loser := older, younger
		if inevYounger {
			survivor, loser = younger, older
		}
		survivorID, loserID := survivor.ID(), loser.ID()
		before := rt.Stats().Snapshot().Deadlocks

		done := make(chan struct{})
		go func() {
			survivor.WriteInt(o, v, 1) // upgrade; blocks on the loser's read bit
			survivor.Commit()
			close(done)
		}()
		waitBlocked(t, rt, survivor)

		ab := runAborting(t, func() { loser.WriteInt(o, v, 2) })
		if ab == nil || ab.Tx != loser {
			t.Fatalf("inevYounger=%t: want tx %d aborted, got %+v", inevYounger, loserID, ab)
		}
		loser.Reset()
		loser.Commit()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("inevYounger=%t: surviving upgrader never committed", inevYounger)
		}

		var cycles []RecordedEvent
		for _, ev := range rt.Recorder().Snapshot() {
			if ev.Kind == EvDeadlock {
				cycles = append(cycles, ev)
			}
		}
		if len(cycles) != 1 {
			t.Fatalf("inevYounger=%t: %d deadlock events, want 1: %v", inevYounger, len(cycles), cycles)
		}
		ids := slices.Clone(cycles[0].CycleIDs)
		slices.Sort(ids)
		if want := []int{min(survivorID, loserID), max(survivorID, loserID)}; !slices.Equal(ids, want) ||
			cycles[0].VictimID != loserID {
			t.Fatalf("inevYounger=%t: deadlock %v, want cycle %v with victim %d", inevYounger, cycles[0], want, loserID)
		}
		if got := rt.Stats().Snapshot().Deadlocks - before; got != 1 {
			t.Fatalf("inevYounger=%t: Stats.Deadlocks rose by %d, want 1", inevYounger, got)
		}
	}
}

// Regression: a dueling write-upgrade where the QUEUED upgrader is the
// queue's only waiter and the ARRIVING upgrader is older. Aborting the
// queued one empties and uninstalls the queue; the survivor must then
// enqueue on a freshly installed queue, not the detached object —
// otherwise no release can ever wake it (the hang this reproduces).
func TestDuelSurvivorNotOnDetachedQueue(t *testing.T) {
	for round := 0; round < 20; round++ {
		rt := NewRuntime()
		c := NewClass("C", FieldSpec{Name: "v", Kind: KindWord})
		o := NewCommitted(c)
		v := c.Field("v")

		older := rt.Begin()
		younger := rt.Begin()
		_ = older.ReadInt(o, v)
		_ = younger.ReadInt(o, v)

		// The younger upgrades first: it enqueues at the front as the
		// queue's only waiter.
		youngerDone := make(chan struct{})
		go func() {
			defer close(youngerDone)
			defer func() {
				if r := recover(); r != nil {
					if ab, ok := r.(*Aborted); ok && ab.Tx == younger {
						younger.Reset()
						younger.Commit()
						return
					}
					panic(r)
				}
			}()
			younger.WriteInt(o, v, 1)
			younger.Commit()
		}()
		time.Sleep(20 * time.Millisecond)

		// The older upgrades second: the duel aborts the queued younger
		// (emptying the queue) and the older must still be wakeable.
		olderDone := make(chan struct{})
		go func() {
			older.WriteInt(o, v, 2)
			older.Commit()
			close(olderDone)
		}()

		select {
		case <-olderDone:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: surviving upgrader parked on a detached queue", round)
		}
		<-youngerDone
	}
}

func TestThreeWayDeadlock(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("C", FieldSpec{Name: "v", Kind: KindWord})
	objs := []*Object{NewCommitted(c), NewCommitted(c), NewCommitted(c)}
	v := c.Field("v")

	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			retryLoop(rt, func(tx *Tx) {
				tx.WriteInt(objs[i], v, int64(i))
				time.Sleep(10 * time.Millisecond) // let the cycle form
				tx.WriteInt(objs[(i+1)%3], v, int64(i))
			})
			mu.Lock()
			total++
			mu.Unlock()
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("three-way deadlock not resolved")
	}
	if total != 3 {
		t.Fatalf("only %d of 3 transactions completed", total)
	}
}

func TestConcurrentCounterIsSerializable(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("C", FieldSpec{Name: "n", Kind: KindWord})
	o := NewCommitted(c)
	n := c.Field("n")

	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				retryLoop(rt, func(tx *Tx) {
					tx.WriteInt(o, n, tx.ReadInt(o, n)+1)
				})
			}
		}()
	}
	wg.Wait()

	check := rt.Begin()
	if got := check.ReadInt(o, n); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d (lost updates)", got, goroutines*perG)
	}
	check.Commit()
}

// TestSlotLeaseLimit pins the identity/slot split: Begin never blocks
// on the bounded slot pool — only a section's first lock acquisition
// does, and only while more than MaxConcurrentTxns sections hold locks.
func TestSlotLeaseLimit(t *testing.T) {
	rt := NewRuntimeOpts(Options{MaxConcurrentTxns: 2})
	c := NewClass("SlotLim", FieldSpec{Name: "v", Kind: KindWord})
	v := c.Field("v")
	a, b, d := NewCommitted(c), NewCommitted(c), NewCommitted(c)

	tx1 := rt.Begin()
	tx2 := rt.Begin()
	// A third Begin proceeds immediately: identity is virtual, unbounded,
	// and no Begin leases a slot.
	tx3 := rt.Begin()
	if got := rt.LeasedSlots(); got != 0 {
		t.Fatalf("LeasedSlots = %d after three Begins, want 0", got)
	}
	tx1.WriteInt(a, v, 1)
	tx2.WriteInt(b, v, 1)
	if got := rt.LeasedSlots(); got != 2 {
		t.Fatalf("LeasedSlots = %d, want 2", got)
	}

	// tx3's first lock acquisition must park in the overflow tier until
	// a lock-holding section ends.
	got := make(chan struct{})
	go func() {
		tx3.WriteInt(d, v, 1)
		close(got)
	}()
	select {
	case <-got:
		t.Fatal("third section acquired a lock past the slot limit")
	case <-time.After(50 * time.Millisecond):
	}
	tx1.Commit()
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("section never unblocked after a slot lease was released")
	}
	tx2.Commit()
	tx3.Commit()
	snap := rt.Stats().Snapshot()
	if snap.SlotWaits == 0 {
		t.Fatal("slot wait not counted")
	}
	// The third section was parked for at least the 50ms probe window,
	// so the pool must have charged a visible amount of wait time.
	if snap.SlotWaitNs < uint64(25*time.Millisecond) {
		t.Fatalf("SlotWaitNs = %d, want at least 25ms of charged pool wait", snap.SlotWaitNs)
	}
}

// TestTwoPhaseReleaseNoEarlyWake pins the two-phase release property: a
// committing transaction clears ALL of its lock words before it wakes
// any queue, so a granted waiter never immediately re-blocks on another
// lock the releaser was still holding. The waiter needs a then b, both
// write-held by the releaser; with the two-phase release it must
// enqueue exactly once (on a) and take b on the fast path — the
// per-site exact contended counters make a second enqueue visible.
func TestTwoPhaseReleaseNoEarlyWake(t *testing.T) {
	rt := NewRuntime()
	ca := NewClass("TwoPhaseA", FieldSpec{Name: "v", Kind: KindWord})
	cb := NewClass("TwoPhaseB", FieldSpec{Name: "v", Kind: KindWord})
	a, b := NewCommitted(ca), NewCommitted(cb)
	av, bv := ca.Field("v"), cb.Field("v")

	holder := rt.Begin()
	holder.WriteInt(a, av, 1)
	holder.WriteInt(b, bv, 1)

	done := make(chan struct{})
	go func() {
		retryLoop(rt, func(tx *Tx) {
			tx.WriteInt(a, av, 2)
			tx.WriteInt(b, bv, 2)
		})
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(rt.BlockedTxns()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never blocked on a")
		}
		time.Sleep(time.Millisecond)
	}
	holder.Commit()
	<-done

	var contendedA, contendedB uint64
	for _, r := range rt.Profile().Snapshot() {
		switch r.Site.Class {
		case "TwoPhaseA":
			contendedA = r.Contended
		case "TwoPhaseB":
			contendedB = r.Contended
		}
	}
	if contendedA == 0 {
		t.Fatal("waiter did not enqueue on a; test lost its setup")
	}
	if contendedB != 0 {
		t.Fatalf("waiter enqueued on b (%d times): woken while the releaser still held b", contendedB)
	}
	if v := CommittedWord(b, bv); v != 2 {
		t.Fatalf("b = %d, want 2", v)
	}
}

func TestAllTxnIDsUsable(t *testing.T) {
	rt := NewRuntime()
	txs := make([]*Tx, MaxTxns)
	seen := map[int]bool{}
	for i := range txs {
		txs[i] = rt.Begin()
		if seen[txs[i].ID()] {
			t.Fatalf("duplicate live transaction ID %d", txs[i].ID())
		}
		seen[txs[i].ID()] = true
	}
	if got := rt.LeasedSlots(); got != 0 {
		t.Fatalf("LeasedSlots = %d after %d Begins, want 0", got, MaxTxns)
	}
	c := NewClass("C", FieldSpec{Name: "v", Kind: KindWord})
	o := NewCommitted(c)
	// All 56 transactions can hold a read lock on one field at once.
	for _, tx := range txs {
		_ = tx.ReadInt(o, c.Field("v"))
	}
	if got := rt.LeasedSlots(); got != MaxTxns {
		t.Fatalf("LeasedSlots = %d with every section holding a lock, want %d", got, MaxTxns)
	}
	for _, tx := range txs {
		tx.Commit()
	}
	if got := rt.Stats().Snapshot().Commits; got != MaxTxns {
		t.Fatalf("Commits = %d, want %d", got, MaxTxns)
	}
}

func TestFairQueueFIFO(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("C", FieldSpec{Name: "v", Kind: KindWord})
	o := NewCommitted(c)
	v := c.Field("v")

	holder := rt.Begin()
	holder.WriteInt(o, v, 0)

	const waiters = 4
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			retryLoop(rt, func(tx *Tx) {
				tx.WriteInt(o, v, int64(i))
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		}(i)
		time.Sleep(30 * time.Millisecond) // establish arrival order i=0,1,2,...
	}
	holder.Commit()
	wg.Wait()
	for i := 0; i < waiters; i++ {
		if order[i] != i {
			t.Fatalf("queue not FIFO: order=%v", order)
		}
	}
}

func TestStressMixedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	rt := NewRuntime()
	c := NewClass("Cell", FieldSpec{Name: "v", Kind: KindWord})
	const cells = 16
	objs := make([]*Object, cells)
	for i := range objs {
		objs[i] = NewCommitted(c)
	}
	v := c.Field("v")

	const goroutines = 12
	const ops = 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seed := uint64(g + 1)
			for i := 0; i < ops; i++ {
				seed = seed*6364136223846793005 + 1442695040888963407
				a := int(seed>>33) % cells
				b := (a + 1 + int(seed>>40)%(cells-1)) % cells
				retryLoop(rt, func(tx *Tx) {
					// Move one unit from a to b: total stays 0.
					tx.WriteInt(objs[a], v, tx.ReadInt(objs[a], v)-1)
					tx.WriteInt(objs[b], v, tx.ReadInt(objs[b], v)+1)
				})
			}
		}(g)
	}
	wg.Wait()

	check := rt.Begin()
	var total int64
	for _, o := range objs {
		total += check.ReadInt(o, v)
	}
	check.Commit()
	if total != 0 {
		t.Fatalf("invariant broken: total = %d, want 0", total)
	}
	s := rt.Stats().Snapshot()
	if s.Commits < goroutines*ops {
		t.Fatalf("commits = %d, want >= %d", s.Commits, goroutines*ops)
	}
	t.Logf("stress: commits=%d aborts=%d contended=%d casfail=%d deadlocks=%d",
		s.Commits, s.Aborts, s.Contended, s.CASFail, s.Deadlocks)
}
