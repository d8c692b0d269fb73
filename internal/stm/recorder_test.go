package stm

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecorderCapturesBlockAndGrant(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("RecBG", FieldSpec{Name: "v", Kind: KindWord})
	o := NewCommitted(c)
	v := c.Field("v")

	holder := rt.Begin()
	holder.WriteInt(o, v, 1)
	done := make(chan struct{})
	go func() {
		retryLoop(rt, func(tx *Tx) { tx.WriteInt(o, v, 2) })
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	holder.Commit()
	<-done

	evs := rt.Recorder().Snapshot()
	var blocked, granted *RecordedEvent
	for i := range evs {
		switch evs[i].Kind {
		case EvBlocked:
			blocked = &evs[i]
		case EvGranted:
			granted = &evs[i]
		}
	}
	if blocked == nil || granted == nil {
		t.Fatalf("missing blocked/granted events: %+v", evs)
	}
	if !blocked.Write {
		t.Fatalf("blocked event lost the write flag: %+v", blocked)
	}
	if blocked.TxID != granted.TxID {
		t.Fatalf("blocked tx %d granted as %d", blocked.TxID, granted.TxID)
	}
	if blocked.Addr == 0 || blocked.Addr != granted.Addr {
		t.Fatalf("lock identity not preserved: blocked %x granted %x", blocked.Addr, granted.Addr)
	}
	if blocked.Seq >= granted.Seq {
		t.Fatalf("grant (seq %d) not after block (seq %d)", granted.Seq, blocked.Seq)
	}
}

// TestRecorderCapturesDeadlockAndDumps resolves a two-member cycle and
// reads it back from the recorder: the deadlock event names both
// members and the youngest as victim, and a dump taken afterwards (what
// examples/transfer -debug prints at exit) shows the block, the
// resolution and the survivor's queued grant that follows it.
func TestRecorderCapturesDeadlockAndDumps(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("RecDead", FieldSpec{Name: "v", Kind: KindWord})
	a, b := NewCommitted(c), NewCommitted(c)
	v := c.Field("v")

	older := rt.Begin()
	younger := rt.Begin()
	youngID := younger.ID()
	older.WriteInt(a, v, 1)
	younger.WriteInt(b, v, 2)

	done := make(chan struct{})
	go func() {
		retryLoop2(rt, younger, func(tx *Tx) {
			tx.WriteInt(b, v, 2)
			tx.WriteInt(a, v, 3)
		})
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	older.WriteInt(b, v, 4)
	older.Commit()
	<-done

	var deadlock *RecordedEvent
	evs := rt.Recorder().Snapshot()
	for i := range evs {
		if evs[i].Kind == EvDeadlock {
			deadlock = &evs[i]
		}
	}
	if deadlock == nil {
		t.Fatalf("no deadlock event recorded: %+v", evs)
	}
	if deadlock.VictimID != youngID {
		t.Fatalf("victim = %d, want youngest %d", deadlock.VictimID, youngID)
	}
	if len(deadlock.CycleIDs) != 2 {
		t.Fatalf("cycle = %v, want both members", deadlock.CycleIDs)
	}

	var dump bytes.Buffer
	if err := rt.Recorder().Dump(&dump); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"blocked", "deadlock", "granted"} {
		if !strings.Contains(dump.String(), want) {
			t.Fatalf("recorder dump missing %q:\n%s", want, dump.String())
		}
	}
}

func TestRecorderWrapAround(t *testing.T) {
	rec := newFlightRecorder(4)
	for i := 0; i < 10; i++ {
		rec.record(&Event{Kind: EvGranted, TxID: i})
	}

	if rec.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", rec.Cap())
	}
	if rec.Recorded() != 10 {
		t.Fatalf("Recorded = %d, want 10", rec.Recorded())
	}
	evs := rec.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Kind != EvGranted || ev.TxID != 6+i {
			t.Fatalf("event %d is %v of txn %d, want granted of txn %d", i, ev.Kind, ev.TxID, 6+i)
		}
		if ev.Seq != uint64(6+i) {
			t.Fatalf("event %d seq %d, want %d (only the newest survive)", i, ev.Seq, 6+i)
		}
	}
}

// Events mark contention only: uncontended sections that promote,
// read through a bias and read invisibly — each counted — record
// nothing on the runtime that ships.
func TestRecorderKeepsOnlyContention(t *testing.T) {
	rt := NewRuntime()
	promo := NewClass("RecOnlyPromo", FieldSpec{Name: "v", Kind: KindWord})
	biased := NewClass("RecOnlyBias", FieldSpec{Name: "v", Kind: KindWord})
	invis := NewClass("RecOnlyInvis", FieldSpec{Name: "v", Kind: KindWord})
	v := promo.Field("v")
	po, bo, io := NewCommitted(promo), NewCommitted(biased), NewCommitted(invis)
	rt.noteSite(promo.fields[v].siteID, siteDuelLoss)
	rt.SeedReadBias(biased, v)
	rt.SeedInvisible(invis, v)

	for i := 0; i < 1000; i++ {
		tx := rt.Begin()
		tx.WriteWord(po, v, tx.ReadWord(po, v)+1) // promoted, and justified by the write
		_ = tx.ReadWord(bo, v)
		_ = tx.ReadWord(io, v)
		tx.Commit()
	}

	snap := rt.Stats().Snapshot()
	if snap.Promotions == 0 || snap.BiasGrants == 0 || snap.InvisReads == 0 {
		t.Fatalf("promotions=%d bias grants=%d invisible reads=%d, want each > 0",
			snap.Promotions, snap.BiasGrants, snap.InvisReads)
	}
	if n := rt.Recorder().Recorded(); n != 0 {
		t.Fatalf("uncontended sections recorded %d events, want 0; the first: %v", n, rt.Recorder().Snapshot()[0])
	}
}

func TestRecorderConcurrentSnapshotIsClean(t *testing.T) {
	rt := NewRuntime()
	rt.rec = newFlightRecorder(8) // a small ring, so snapshots race wrap-around
	c := NewClass("RecRace", FieldSpec{Name: "v", Kind: KindWord})
	o := NewCommitted(c)
	v := c.Field("v")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				retryLoop(rt, func(tx *Tx) { tx.WriteInt(o, v, 1) })
			}
		}()
	}
	// Snapshot concurrently with writers: every returned slot must be
	// internally consistent (kind decodes, seq monotonic).
	for i := 0; i < 200; i++ {
		last := int64(-1)
		for _, ev := range rt.Recorder().Snapshot() {
			if int64(ev.Seq) <= last {
				t.Fatalf("snapshot seqs not increasing: %d after %d", ev.Seq, last)
			}
			last = int64(ev.Seq)
			if ev.Kind >= EventKind(len(eventNames)) {
				t.Fatalf("undecodable kind %d", ev.Kind)
			}
		}
	}
	close(stop)
	wg.Wait()
}
