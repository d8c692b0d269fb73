package stm

import (
	"fmt"
	"sync"
	"testing"
)

// primeInvis installs the version array of o by running the one
// visible read every object pays after its site flips invisible.
func primeInvis(rt *Runtime, o *Object, f FieldID) {
	tx := rt.Begin()
	tx.ReadWord(o, f)
	tx.Commit()
}

// TestInvisReadBasic drives the invisible read path end to end: a
// seeded site's first read installs the version array and stays
// visible; from the second read on the transaction stores nothing
// shared at all — no lock word bit, no bias slot, not even a slot
// lease — and the commit validates cleanly.
func TestInvisReadBasic(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("InvisBasic", FieldSpec{Name: "v", Kind: KindWord})
	v := c.Field("v")
	o := NewCommitted(c)
	SetCommittedWord(o, v, 7)
	rt.SeedInvisible(c, v)

	primeInvis(rt, o, v)
	if rt.Stats().Snapshot().InvisReads != 0 {
		t.Fatalf("version-array install read should stay visible")
	}

	samplePhase(rt, 1) // the first of the two invisible reads is on the sample
	tx := rt.Begin()
	if got := tx.ReadWord(o, v); got != 7 {
		t.Fatalf("invisible read = %d, want 7", got)
	}
	if got := tx.ReadWord(o, v); got != 7 {
		t.Fatalf("repeated invisible read = %d, want 7", got)
	}
	if tx.Slot() >= 0 {
		t.Fatalf("invisible reads leased slot %d; want none", tx.Slot())
	}
	if w := o.locks.Load().words[0]; w != 0 {
		t.Fatalf("invisible read left lock word %#x, want 0", w)
	}
	tx.Commit()

	snap := rt.Stats().Snapshot()
	if snap.InvisReads != 2 {
		t.Fatalf("InvisReads = %d, want 2", snap.InvisReads)
	}
	if snap.ValidationAborts != 0 {
		t.Fatalf("unexpected validation aborts: %+v", snap)
	}
	if snap.BiasGrants != 0 {
		t.Fatalf("invisible site fell back to bias: %+v", snap)
	}

	var reads uint64
	for _, row := range rt.Profile().Snapshot() {
		if row.Site.Class == "InvisBasic" {
			reads = row.InvisReads
		}
	}
	if reads != ProfilePeriod {
		t.Fatalf("site profile InvisReads = %d, want %d", reads, ProfilePeriod)
	}
}

// TestInvisValidationAbort commits a writer between an invisible read
// and the reader's commit: validation must fail, the section must
// replay (visibly, because the abort crushed the site score), and the
// replay must see the writer's value.
func TestInvisValidationAbort(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("InvisVAbort", FieldSpec{Name: "v", Kind: KindWord})
	v := c.Field("v")
	o := NewCommitted(c)
	SetCommittedWord(o, v, 1)
	rt.SeedInvisible(c, v)
	primeInvis(rt, o, v)

	var seen []uint64
	attempt := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		retryLoop(rt, func(tx *Tx) {
			got := tx.ReadWord(o, v)
			if attempt == 0 {
				// Invisible read taken; now a writer commits behind our back.
				w := rt.Begin()
				w.WriteWord(o, v, 2)
				w.Commit()
			}
			attempt++
			seen = append(seen, got)
		})
	}()
	<-done

	snap := rt.Stats().Snapshot()
	if snap.ValidationAborts == 0 {
		t.Fatalf("no validation abort recorded: %+v", snap)
	}
	if snap.Aborts == 0 {
		t.Fatalf("validation abort did not count as an abort: %+v", snap)
	}
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("attempts saw %v, want [1 2]", seen)
	}
	if siteMode(rt, c.fields[v].siteID) == ModeInvisible {
		t.Fatalf("site still invisible after a validation abort")
	}
	var aborts uint64
	for _, row := range rt.Profile().Snapshot() {
		if row.Site.Class == "InvisVAbort" {
			aborts = row.ValAborts
		}
	}
	if aborts == 0 {
		t.Fatalf("validation abort not charged to the site profile")
	}
}

// TestInvisUpgradeLostUpdate is the lost-update regression for
// upgrade-from-invisible: a transaction reads a counter invisibly,
// another transaction commits an increment, and the first transaction
// then writes its (stale-read-based) increment. The write lock itself
// admits the stale write — only commit-time validation of the
// invisible read catches it. The final value must reflect both
// increments.
func TestInvisUpgradeLostUpdate(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("InvisUpgrade", FieldSpec{Name: "v", Kind: KindWord})
	v := c.Field("v")
	o := NewCommitted(c)
	SetCommittedWord(o, v, 5)
	rt.SeedInvisible(c, v)
	primeInvis(rt, o, v)

	raced := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		retryLoop(rt, func(tx *Tx) {
			got := tx.ReadWord(o, v)
			if !raced {
				raced = true
				w := rt.Begin()
				w.WriteWord(o, v, CommittedWord(o, v)+1) // 5 -> 6
				w.Commit()
			}
			tx.WriteWord(o, v, got+1)
		})
	}()
	<-done

	if got := CommittedWord(o, v); got != 7 {
		t.Fatalf("final value = %d, want 7 (one increment lost)", got)
	}
	if rt.Stats().Snapshot().ValidationAborts == 0 {
		t.Fatalf("stale upgrade committed without a validation abort")
	}
}

// TestInvisSnapshotExtension reads a second word whose version is newer
// than the transaction's read version while the first invisible read is
// still valid: the snapshot extends and the transaction commits with
// both reads.
func TestInvisSnapshotExtension(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("InvisExtend", FieldSpec{Name: "a", Kind: KindWord}, FieldSpec{Name: "b", Kind: KindWord})
	fa, fb := c.Field("a"), c.Field("b")
	o := NewCommitted(c)
	SetCommittedWord(o, fa, 10)
	SetCommittedWord(o, fb, 20)
	rt.SeedInvisible(c, fa)
	rt.SeedInvisible(c, fb)
	tx0 := rt.Begin() // install both version arrays (one slab, one install)
	tx0.ReadWord(o, fa)
	tx0.ReadWord(o, fb)
	tx0.Commit()

	tx := rt.Begin()
	if got := tx.ReadWord(o, fa); got != 10 {
		t.Fatalf("read a = %d, want 10", got)
	}
	// A writer commits to b only: b's version jumps past tx.rv, but a is
	// untouched, so the snapshot extension succeeds.
	w := rt.Begin()
	w.WriteWord(o, fb, 21)
	w.Commit()
	if got := tx.ReadWord(o, fb); got != 21 {
		t.Fatalf("read b = %d, want 21", got)
	}
	tx.Commit()

	snap := rt.Stats().Snapshot()
	if snap.ValidationAborts != 0 {
		t.Fatalf("snapshot extension aborted: %+v", snap)
	}
	if snap.InvisReads < 2 {
		t.Fatalf("InvisReads = %d, want >= 2", snap.InvisReads)
	}
}

// TestInvisZombiePrevention writes both words between a transaction's
// two invisible reads: the second read's snapshot extension must fail
// and abort the section MID-BODY — before user code could ever consume
// the inconsistent pair — and the replay sees both new values.
func TestInvisZombiePrevention(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("InvisZombie", FieldSpec{Name: "a", Kind: KindWord}, FieldSpec{Name: "b", Kind: KindWord})
	fa, fb := c.Field("a"), c.Field("b")
	o := NewCommitted(c)
	SetCommittedWord(o, fa, 1)
	SetCommittedWord(o, fb, 1)
	rt.SeedInvisible(c, fa)
	rt.SeedInvisible(c, fb)
	tx0 := rt.Begin()
	tx0.ReadWord(o, fa)
	tx0.ReadWord(o, fb)
	tx0.Commit()

	raced := false
	var pairs [][2]uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		retryLoop(rt, func(tx *Tx) {
			a := tx.ReadWord(o, fa)
			if !raced {
				raced = true
				w := rt.Begin()
				w.WriteWord(o, fa, 2)
				w.WriteWord(o, fb, 2)
				w.Commit()
			}
			b := tx.ReadWord(o, fb)
			pairs = append(pairs, [2]uint64{a, b})
		})
	}()
	<-done

	for _, p := range pairs {
		if p[0] != p[1] {
			t.Fatalf("body observed inconsistent pair %v", p)
		}
	}
	if rt.Stats().Snapshot().ValidationAborts == 0 {
		t.Fatalf("inconsistent read pair did not abort")
	}
}

// TestInvisAbortDoesNotStamp aborts a writer between a granted
// invisible read and its commit: the undo log restores the value and no
// version is stamped, so the reader's validation still passes.
func TestInvisAbortDoesNotStamp(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("InvisAbortStamp", FieldSpec{Name: "v", Kind: KindWord})
	v := c.Field("v")
	o := NewCommitted(c)
	SetCommittedWord(o, v, 3)
	rt.SeedInvisible(c, v)
	primeInvis(rt, o, v)

	tx := rt.Begin()
	if got := tx.ReadWord(o, v); got != 3 {
		t.Fatalf("invisible read = %d, want 3", got)
	}
	// A writer modifies the word and aborts: committed state unchanged.
	w := rt.Begin()
	w.WriteWord(o, v, 99)
	w.Reset()
	w.AbandonAfterReset()
	tx.Commit() // must validate: no commit ever landed on the word

	if snap := rt.Stats().Snapshot(); snap.ValidationAborts != 0 {
		t.Fatalf("aborted writer broke the reader's validation: %+v", snap)
	}
	if got := CommittedWord(o, v); got != 3 {
		t.Fatalf("aborted writer leaked value %d", got)
	}
}

// TestInvisAdaptiveFlip exercises the learning loop without seeding:
// repeated conflict-free reads flip the site invisible (a ModeFlip),
// and a burst of writes flips it back. Each section makes one acquire,
// so exactly one in every ProfilePeriod consecutive sections is
// sampled evidence: invisOn/invisReadBoost = 3 periods of reads flip
// the site, and one period of writes (one sampled write) flips it back.
func TestInvisAdaptiveFlip(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("InvisFlip", FieldSpec{Name: "v", Kind: KindWord})
	v := c.Field("v")
	o := NewCommitted(c)
	site := c.fields[v].siteID

	const flipReads = invisOn / invisReadBoost * ProfilePeriod
	for i := 0; i < flipReads && siteMode(rt, site) != ModeInvisible; i++ {
		tx := rt.Begin()
		tx.ReadWord(o, v)
		tx.Commit()
	}
	if siteMode(rt, site) != ModeInvisible {
		t.Fatalf("site did not flip invisible after %d reads", flipReads)
	}
	snap := rt.Stats().Snapshot()
	if snap.ModeFlips == 0 {
		t.Fatalf("flip-on not counted: %+v", snap)
	}

	// Reads now go invisible (first one installs the version array).
	tx := rt.Begin()
	tx.ReadWord(o, v)
	tx.Commit()
	tx = rt.Begin()
	tx.ReadWord(o, v)
	tx.Commit()
	if got := rt.Stats().Snapshot().InvisReads; got == 0 {
		t.Fatalf("flipped site served no invisible reads")
	}

	// Write traffic decays the score below the threshold again.
	for i := 0; i < ProfilePeriod && siteMode(rt, site) == ModeInvisible; i++ {
		tx := rt.Begin()
		tx.WriteWord(o, v, uint64(i))
		tx.Commit()
	}
	if siteMode(rt, site) == ModeInvisible {
		t.Fatalf("site still invisible after a write burst")
	}
	if after := rt.Stats().Snapshot(); after.ModeFlips < 2 {
		t.Fatalf("flip-back not counted: ModeFlips = %d", after.ModeFlips)
	}
}

// TestInvisBecomeInevitable requests inevitability after an invisible
// read: the section must abort once (the read-set cannot be validated
// later), replay with invisible reads pinned off, and commit.
func TestInvisBecomeInevitable(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("InvisInev", FieldSpec{Name: "v", Kind: KindWord})
	v := c.Field("v")
	o := NewCommitted(c)
	SetCommittedWord(o, v, 4)
	rt.SeedInvisible(c, v)
	primeInvis(rt, o, v)

	attempts := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		retryLoop(rt, func(tx *Tx) {
			attempts++
			got := tx.ReadWord(o, v)
			tx.BecomeInevitable()
			tx.WriteWord(o, v, got+1)
		})
	}()
	<-done

	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (abort once, replay visibly)", attempts)
	}
	if got := CommittedWord(o, v); got != 5 {
		t.Fatalf("final value = %d, want 5", got)
	}
}

// TestInvisConcurrentCounters hammers one read-hot word from readers
// while a slow writer increments it: every committed reader must have
// seen a value the writer actually produced, and the counter must end
// exact — invisible reads never lose an update.
func TestInvisConcurrentCounters(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("InvisConc", FieldSpec{Name: "v", Kind: KindWord})
	v := c.Field("v")
	o := NewCommitted(c)
	rt.SeedInvisible(c, v)
	primeInvis(rt, o, v)

	const writers, perWriter = 4, 200
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				retryLoop(rt, func(tx *Tx) {
					tx.WriteWord(o, v, tx.ReadWord(o, v)+1)
				})
			}
		}()
	}

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	var readerErr error
	var rmu sync.Mutex
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				retryLoop(rt, func(tx *Tx) {
					got := tx.ReadWord(o, v)
					if got < last {
						rmu.Lock()
						readerErr = fmt.Errorf("counter went backwards: %d after %d", got, last)
						rmu.Unlock()
					}
					last = got
				})
			}
		}()
	}

	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	if got := CommittedWord(o, v); got != writers*perWriter {
		t.Fatalf("counter = %d, want %d", got, writers*perWriter)
	}
	if readerErr != nil {
		t.Fatal(readerErr)
	}
}

// TestVisibleGrantRevalidates is the invisible→visible zombie: T1 reads
// x invisibly, T2 overwrites x and the ref y and commits, and T1's next
// visible read of y must unwind with *Aborted — a grant without a look
// at the read-set would hand T1 T2's y beside T1's stale x. y lives on
// an object whose slab carries no version array, so only the clock
// tells T1 that something committed.
func TestVisibleGrantRevalidates(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("InvisZombie", FieldSpec{Name: "x", Kind: KindWord}, FieldSpec{Name: "y", Kind: KindRef})
	x, y := c.Field("x"), c.Field("y")
	o, p := NewCommitted(c), NewCommitted(c)
	rt.SeedInvisible(c, x)
	primeInvis(rt, o, x)

	t1 := rt.Begin()
	t1.ReadWord(o, x)
	if len(t1.readSet) != 1 {
		t.Fatalf("T1's read of x was not invisible (read-set %d)", len(t1.readSet))
	}
	t2 := rt.Begin()
	t2.WriteWord(o, x, 1)
	t2.WriteRef(p, y, NewCommitted(c))
	t2.Commit()

	got := func() (r any) {
		defer func() { r = recover() }()
		t1.ReadRef(p, y)
		return nil
	}()
	if _, ok := got.(*Aborted); !ok {
		t.Fatalf("T1's visible read after a conflicting commit returned; recovered %v, want *Aborted", got)
	}
	t1.Reset()
	if t1.ReadWord(o, x) != 1 || t1.ReadRef(p, y) == nil {
		t.Fatal("replay did not see T2's commit")
	}
	t1.Commit()
	if s := rt.Stats().Snapshot(); s.ValidationAborts != 1 {
		t.Fatalf("ValidationAborts = %d, want 1", s.ValidationAborts)
	}
}

// TestReadSetRepeatedReadAddsNoEntry reads one word k times in a row
// invisibly: the read-set keeps one entry and InvisReads counts all k.
// Only a repeat of the last entry is dropped, and a foreign commit
// between two reads of the word still aborts the reader, because the
// second read sees a newer version and the first entry no longer holds.
func TestReadSetRepeatedReadAddsNoEntry(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("ReadSetRepeat", FieldSpec{Name: "a", Kind: KindWord}, FieldSpec{Name: "b", Kind: KindWord})
	fa, fb := c.Field("a"), c.Field("b")
	o := NewCommitted(c)
	SetCommittedWord(o, fa, 3)
	rt.SeedInvisible(c, fa)
	rt.SeedInvisible(c, fb)
	primeInvis(rt, o, fa)

	const k = 5
	tx := rt.Begin()
	for i := 0; i < k; i++ {
		if got := tx.ReadWord(o, fa); got != 3 {
			t.Fatalf("read %d = %d, want 3", i, got)
		}
	}
	if len(tx.readSet) != 1 || tx.n.InvisReads != k {
		t.Fatalf("%d reads of one word: %d read-set entries, InvisReads %d; want 1 and %d",
			k, len(tx.readSet), tx.n.InvisReads, k)
	}
	tx.ReadWord(o, fb)
	tx.ReadWord(o, fa)
	if len(tx.readSet) != 3 {
		t.Fatalf("a, b, a: %d read-set entries, want 3", len(tx.readSet))
	}
	tx.Commit()

	tx = rt.Begin()
	tx.ReadWord(o, fa)
	w := rt.Begin()
	w.WriteWord(o, fa, 4)
	w.Commit()
	if ab := runAborting(t, func() { tx.ReadWord(o, fa) }); ab == nil {
		t.Fatal("a foreign commit between two reads of one word did not abort the reader")
	}
	tx.Reset()
	if got := tx.ReadWord(o, fa); got != 4 {
		t.Fatalf("replay read %d, want 4", got)
	}
	tx.Commit()
}
