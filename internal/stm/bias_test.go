package stm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBiasReadBasic drives the biased read path end to end on one
// goroutine: a seeded site grants reads through the reader slots (no
// shared CAS), a repeated read of the same word is served from the
// transaction's own bias log, commit releases the slot, and a
// subsequent writer writes through the marker — W beside the bias, no
// revocation — and still sees the committed value, leaving the bias
// standing for the next reader.
func TestBiasReadBasic(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("BiasBasic", FieldSpec{Name: "v", Kind: KindWord})
	v := c.Field("v")
	o := NewCommitted(c)
	SetCommittedWord(o, v, 7)
	rt.SeedReadBias(c, v)

	samplePhase(rt, 1) // the first grant is on the sample, the post-write one is not
	tx := rt.Begin()
	if got := tx.ReadWord(o, v); got != 7 {
		t.Fatalf("biased read = %d, want 7", got)
	}
	if got := tx.ReadWord(o, v); got != 7 {
		t.Fatalf("repeated biased read = %d, want 7", got)
	}
	tx.Commit()

	snap := rt.Stats().Snapshot()
	if snap.BiasGrants != 1 {
		t.Fatalf("BiasGrants = %d, want 1: %+v", snap.BiasGrants, snap)
	}

	// A writer writes through the marker: W lands beside the bias, the
	// (empty) reader cohort drains instantly, and the marker survives.
	w := rt.Begin()
	w.WriteWord(o, v, 8)
	w.Commit()
	snap = rt.Stats().Snapshot()
	if snap.BiasWriteThrus == 0 {
		t.Fatalf("writer did not write through the bias: %+v", snap)
	}
	if snap.BiasRevokes != 0 {
		t.Fatalf("uncontended writer revoked instead of writing through: %+v", snap)
	}
	if got := CommittedWord(o, v); got != 8 {
		t.Fatalf("committed value = %d, want 8", got)
	}

	// The marker survived the write: the next read is granted through
	// the slots again, with no fresh marker install.
	r := rt.Begin()
	if got := r.ReadWord(o, v); got != 8 {
		t.Fatalf("post-write biased read = %d, want 8", got)
	}
	r.Commit()
	if after := rt.Stats().Snapshot(); after.BiasGrants != snap.BiasGrants+1 {
		t.Fatalf("post-write read not biased: grants %d -> %d", snap.BiasGrants, after.BiasGrants)
	}

	// Per-site profile carries the bias columns.
	var grants uint64
	for _, row := range rt.Profile().Snapshot() {
		if row.Site.Class == "BiasBasic" {
			grants = row.BiasGrants
		}
	}
	if grants != ProfilePeriod {
		t.Fatalf("site profile grants=%d, want %d", grants, ProfilePeriod)
	}
}

// TestBiasWriteDrainTimeoutRevokes forces the write-through fallback: a
// reader transaction holds its reader slot open (uncommitted) while a
// writer arrives. The writer CASes W in beside the marker, burns its
// bounded drain budget against the parked slot, retracts, and falls
// back to the queue path — revoking the bias so the slot holder lands
// in its dependency digest — then completes once the reader commits.
func TestBiasWriteDrainTimeoutRevokes(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("BiasDrainTimeout", FieldSpec{Name: "v", Kind: KindWord})
	v := c.Field("v")
	o := NewCommitted(c)
	SetCommittedWord(o, v, 1)
	rt.SeedReadBias(c, v)

	r := rt.Begin()
	if got := r.ReadWord(o, v); got != 1 {
		t.Fatalf("biased read = %d, want 1", got)
	}

	writerDone := make(chan struct{})
	go func() {
		retryLoop(rt, func(tx *Tx) {
			tx.WriteWord(o, v, tx.ReadWord(o, v)+1)
		})
		close(writerDone)
	}()

	// The writer cannot finish while the reader slot is live: the drain
	// budget (a bounded number of reschedules) burns out well within the
	// sleep, after which the writer must have retracted W and parked on
	// the revocation path. (The revoke counter itself is transaction-
	// local until the writer commits, so it cannot be polled here.)
	time.Sleep(100 * time.Millisecond)
	select {
	case <-writerDone:
		t.Fatal("writer finished while the reader slot was still published")
	default:
	}

	r.Commit() // releases the slot; the parked writer drains and proceeds
	select {
	case <-writerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("writer still blocked after the reader slot cleared")
	}
	if got := CommittedWord(o, v); got != 2 {
		t.Fatalf("committed value = %d, want 2", got)
	}
	snap := rt.Stats().Snapshot()
	if snap.BiasRevokes == 0 {
		t.Fatalf("writer never fell back to revocation: %+v", snap)
	}
}

// TestBiasUpgradeFromBias checks the lost-update corner: a transaction
// that biased-read a word and then writes it must keep its read
// visibility while upgrading (the slot stays published until commit),
// and concurrent increments through that path must all survive.
func TestBiasUpgradeFromBias(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("BiasUpgrade", FieldSpec{Name: "v", Kind: KindWord})
	v := c.Field("v")
	o := NewCommitted(c)
	rt.SeedReadBias(c, v)

	const workers, rounds = 4, 25
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				retryLoop(rt, func(tx *Tx) {
					tx.WriteWord(o, v, tx.ReadWord(o, v)+1)
				})
			}
		}()
	}
	wg.Wait()
	if got := CommittedWord(o, v); got != workers*rounds {
		t.Fatalf("counter = %d, want %d (lost update through upgrade-from-bias)", got, workers*rounds)
	}
}

// TestBiasedReadersDoNotStarveWriter checks that a continuous stream
// of biased readers cannot starve a writer. The common path is the
// write-through: W lands beside the marker, which cuts off new slot
// publishes, so the wait is bounded by the cohort already published.
// The fallback (drain timeout) revokes instead: the marker is replaced
// by a real installed queue, readers arriving after it enqueue FIFO
// behind the writer, and re-biasing needs the queue drained — which
// needs the writer served. Either way the writer finishes.
func TestBiasedReadersDoNotStarveWriter(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("BiasStarve", FieldSpec{Name: "v", Kind: KindWord})
	v := c.Field("v")
	o := NewCommitted(c)
	rt.SeedReadBias(c, v)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				retryLoop(rt, func(tx *Tx) {
					_ = tx.ReadWord(o, v)
				})
			}
		}()
	}

	// Let the reader stream saturate the bias path, then write through it.
	time.Sleep(20 * time.Millisecond)
	writerDone := make(chan struct{})
	go func() {
		retryLoop(rt, func(tx *Tx) {
			tx.WriteWord(o, v, tx.ReadWord(o, v)+1)
		})
		close(writerDone)
	}()
	select {
	case <-writerDone:
	case <-time.After(5 * time.Second):
		stop.Store(true)
		t.Fatal("writer starved by biased reader stream")
	}
	stop.Store(true)
	wg.Wait()

	if got := CommittedWord(o, v); got != 1 {
		t.Fatalf("counter = %d, want 1", got)
	}
	snap := rt.Stats().Snapshot()
	if snap.BiasGrants == 0 {
		t.Fatalf("reader stream never took the bias path: %+v", snap)
	}
	if snap.BiasWriteThrus == 0 && snap.BiasRevokes == 0 {
		t.Fatalf("writer went through neither write-through nor revocation: %+v", snap)
	}
}

// TestBiasedReaderInDeadlockCycle checks that a biased reader is
// visible to the deadlock detector: reader R biased-reads A (reader
// slot only — no holder bit in A's lock word) and then blocks writing
// B; writer W holds B and blocks revoking A. The only edge closing the
// cycle W -> R is the reader-slot scan folded into W's dependency
// digest; the detector must find the cycle and abort the younger
// transaction, and both increments must survive the retry.
func TestBiasedReaderInDeadlockCycle(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("BiasCycle", FieldSpec{Name: "v", Kind: KindWord})
	v := c.Field("v")
	a, b := NewCommitted(c), NewCommitted(c)
	rt.SeedReadBias(c, v)

	readerHolds := make(chan struct{})
	writerHolds := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		first := true
		retryLoop(rt, func(tx *Tx) {
			_ = tx.ReadWord(a, v) // biased: visibility is a reader slot
			if first {
				first = false
				close(readerHolds)
				<-writerHolds
			}
			tx.WriteWord(b, v, tx.ReadWord(b, v)+1)
		})
	}()

	firstW := true
	retryLoop(rt, func(tx *Tx) {
		tx.WriteWord(b, v, tx.ReadWord(b, v)+1)
		if firstW {
			firstW = false
			<-readerHolds
			once.Do(func() { close(writerHolds) })
		}
		tx.WriteWord(a, v, tx.ReadWord(a, v)+1)
	})
	wg.Wait()

	if got := CommittedWord(b, v); got != 2 {
		t.Fatalf("b = %d, want 2 (lost update resolving the cycle)", got)
	}
	if got := CommittedWord(a, v); got != 1 {
		t.Fatalf("a = %d, want 1", got)
	}
	snap := rt.Stats().Snapshot()
	if snap.Deadlocks == 0 {
		t.Fatalf("cycle through the biased reader was not detected: %+v", snap)
	}
	if snap.BiasRevokes == 0 {
		t.Fatalf("writer never revoked the bias: %+v", snap)
	}
	if snap.Aborts == 0 {
		t.Fatalf("no victim aborted: %+v", snap)
	}
}
