package stm

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestAcquireBatchBasics: a batch over distinct words acquires each in
// the requested mode, counts one batched acquisition, and leaves the
// words coverable by raw accesses until commit.
func TestAcquireBatchBasics(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("BatchC",
		FieldSpec{Name: "a", Kind: KindWord},
		FieldSpec{Name: "b", Kind: KindWord})
	o := NewCommitted(c)
	arr := NewCommittedArray(KindWord, 4)
	fa, fb := c.Field("a"), c.Field("b")

	tx := rt.Begin()
	tx.AcquireBatch([]BatchAccess{
		{Obj: o, Field: fa, Write: true},
		{Obj: o, Field: fb},
		{Obj: arr, Index: 1, IsElem: true, Write: true},
		{Obj: arr, Index: 3, IsElem: true},
	})
	// Write-mode words are write-locked, read-mode words read-locked.
	slab := o.locks.Load()
	if w := atomic.LoadUint64(&slab.words[0]); !wordIsWrite(w) || w&tx.mask == 0 {
		t.Fatalf("field a not write-held: %s", formatWord(w))
	}
	if w := atomic.LoadUint64(&slab.words[1]); wordIsWrite(w) || w&tx.mask == 0 {
		t.Fatalf("field b not read-held: %s", formatWord(w))
	}
	aslab := arr.locks.Load()
	if w := atomic.LoadUint64(&aslab.words[1]); !wordIsWrite(w) {
		t.Fatalf("elem 1 not write-held: %s", formatWord(w))
	}
	if n := len(tx.lockLog); n != 4 {
		t.Fatalf("lock log has %d entries, want 4", n)
	}
	// The covered accesses run raw.
	o.SetRawWord(fa, 7)
	arr.SetRawElem(1, 9)
	_ = o.RawWord(fb)
	_ = arr.RawElem(3)

	// A second batch over the same words is pure owned-checks.
	before := tx.n.CheckOwned
	tx.AcquireBatch([]BatchAccess{
		{Obj: o, Field: fa, Write: true},
		{Obj: o, Field: fb},
	})
	if got := tx.n.CheckOwned - before; got != 2 {
		t.Fatalf("re-batch owned checks = %d, want 2", got)
	}
	if n := len(tx.lockLog); n != 4 {
		t.Fatalf("lock log grew to %d on owned re-batch", n)
	}
	tx.Commit()

	snap := rt.Stats().Snapshot()
	if snap.BatchAcquires != 2 || snap.BatchWords != 6 {
		t.Fatalf("batch counters = %d/%d, want 2/6", snap.BatchAcquires, snap.BatchWords)
	}
	if snap.Acquire != 4 {
		t.Fatalf("Acquire = %d, want 4", snap.Acquire)
	}
	if CommittedWord(o, fa) != 7 || arr.RawElem(1) != 9 {
		t.Fatal("raw writes under batch locks lost")
	}
	// Locks released at commit.
	if w := atomic.LoadUint64(&slab.words[0]); wordHolders(w) != 0 {
		t.Fatalf("field a still held after commit: %s", formatWord(w))
	}
}

// TestAcquireBatchResolution: new instances, thread-local memory, final
// fields, and duplicate words resolve exactly as the single-word path
// would — no lock words touched, read+write of one word merges to write.
func TestAcquireBatchResolution(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("BatchR",
		FieldSpec{Name: "v", Kind: KindWord},
		FieldSpec{Name: "k", Kind: KindWord, Final: true})
	shared := NewCommitted(c)
	fv, fk := c.Field("v"), c.Field("k")

	tx := rt.Begin()
	fresh := tx.New(c)
	local := tx.NewLocal(c)
	local.SetRawWord(fv, 41)
	tx.AcquireBatch([]BatchAccess{
		{Obj: fresh, Field: fv, Write: true},  // new: is-new check only
		{Obj: local, Field: fv, Write: true},  // local: undo capture only
		{Obj: shared, Field: fk},              // final: nothing
		{Obj: shared, Field: fv},              // read...
		{Obj: shared, Field: fv, Write: true}, // ...merged up to write
	})
	if n := len(tx.lockLog); n != 1 {
		t.Fatalf("lock log has %d entries, want 1 (only shared.v locks)", n)
	}
	w := atomic.LoadUint64(&shared.locks.Load().words[0])
	if !wordIsWrite(w) {
		t.Fatalf("read+write dedup did not acquire write mode: %s", formatWord(w))
	}
	if tx.n.CheckNew != 1 {
		t.Fatalf("nCheckNew = %d, want 1", tx.n.CheckNew)
	}
	// The local write's undo was captured by the batch: a reset restores.
	local.SetRawWord(fv, 99)
	shared.SetRawWord(fv, 5)
	tx.Reset()
	if got := local.RawWord(fv); got != 41 {
		t.Fatalf("local word after reset = %d, want 41", got)
	}
	if got := CommittedWord(shared, fv); got != 0 {
		t.Fatalf("shared word after reset = %d, want 0", got)
	}
	tx.AbandonAfterReset()
}

// TestAcquireBatchFallbackContended: a word someone else holds pushes the
// batch into the lockFor fallback, which waits for the grant like any
// single-word acquisition (and counts the contention).
func TestAcquireBatchFallbackContended(t *testing.T) {
	rt := NewRuntime()
	arr := NewCommittedArray(KindWord, 4)

	holder := rt.Begin()
	holder.WriteElem(arr, 2, 10)

	done := make(chan struct{})
	go func() {
		defer close(done)
		tx := rt.Begin()
		tx.AcquireBatch([]BatchAccess{
			{Obj: arr, Index: 0, IsElem: true, Write: true},
			{Obj: arr, Index: 2, IsElem: true, Write: true},
		})
		arr.SetRawElem(0, arr.RawElem(0)+1)
		arr.SetRawElem(2, arr.RawElem(2)+1)
		tx.Commit()
	}()
	// The batcher ends up enqueued on elem 2; release it once the queue
	// is installed (its bounded spin phase gives up first).
	for wordQueueID(atomic.LoadUint64(&arr.locks.Load().words[2])) == 0 {
	}
	holder.Commit()
	<-done
	if got := arr.RawElem(2); got != 11 {
		t.Fatalf("elem 2 = %d, want 11", got)
	}
	if got := arr.RawElem(0); got != 1 {
		t.Fatalf("elem 0 = %d, want 1", got)
	}
}

// blockWatcher is a Hooks implementation that reports EvBlocked events
// on a buffered channel (Event handlers run under the detector mutex and
// must never block) and counts deadlock resolutions.
type blockWatcher struct {
	blocked chan blockedAt
}

type blockedAt struct {
	txID int
	addr *uint64
}

func newBlockWatcher() *blockWatcher {
	return &blockWatcher{blocked: make(chan blockedAt, 64)}
}

func (h *blockWatcher) Yield(YieldPoint)        {}
func (h *blockWatcher) Block(YieldPoint)        {}
func (h *blockWatcher) Unblock(YieldPoint)      {}
func (h *blockWatcher) FailCAS(YieldPoint) bool { return false }
func (h *blockWatcher) DelayGrant() bool        { return false }
func (h *blockWatcher) Event(ev Event) {
	if ev.Kind == EvBlocked {
		select {
		case h.blocked <- blockedAt{txID: ev.TxID, addr: ev.Addr}:
		default:
		}
	}
}

func (h *blockWatcher) awaitBlocked(t *testing.T, txID int, addr *uint64) {
	t.Helper()
	for ev := range h.blocked {
		if ev.txID == txID && (addr == nil || ev.addr == addr) {
			return
		}
	}
	t.Fatalf("blocked channel closed waiting for tx %d", txID)
}

// runBatchSection retries an atomic section built around AcquireBatch
// until it commits, preserving the no-sort switch across replays. The
// first attempt's transaction ID is reported on idCh when non-nil.
func runBatchSection(rt *Runtime, noSort bool, accs []BatchAccess, body func(tx *Tx), idCh chan<- int) {
	for {
		tx := rt.Begin()
		if idCh != nil {
			idCh <- tx.ID()
			idCh = nil
		}
		tx.batchNoSort = noSort
		ok := func() (committed bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, is := r.(*Aborted); !is {
						panic(r)
					}
					tx.Reset()
					tx.batchNoSort = noSort
				}
			}()
			tx.AcquireBatch(accs)
			body(tx)
			tx.Commit()
			return true
		}()
		if ok {
			return
		}
	}
}

// TestBatchSortedOrderPreventsDeadlock is the directed two-transaction
// duel of the batch path. Two batches name the same two array elements
// in opposite program orders. With the address sort disabled the
// choreography below drives them into a genuine cycle — A holds elem 0
// and waits for elem 2, B holds elem 2 and waits for elem 0 — which only
// the deadlock detector resolves (Deadlocks > 0). With the sort enabled
// (production behavior) the identical choreography degenerates to a
// queue on the common first word and the detector never fires.
func TestBatchSortedOrderPreventsDeadlock(t *testing.T) {
	run := func(noSort bool) uint64 {
		h := newBlockWatcher()
		rt := NewRuntimeOpts(Options{Hooks: h})
		arr := NewCommittedArray(KindWord, 4)

		// Seed holders so both batchers block on their first word with
		// nothing else held: C holds elem 0, D holds elem 2.
		cHeld, dHeld := make(chan int, 1), make(chan int, 1)
		cGo, dGo := make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(4)
		go func() {
			defer wg.Done()
			tx := rt.Begin()
			tx.WriteElem(arr, 0, 1)
			cHeld <- tx.ID()
			<-cGo
			tx.Commit()
		}()
		<-cHeld
		go func() {
			defer wg.Done()
			tx := rt.Begin()
			tx.WriteElem(arr, 2, 1)
			dHeld <- tx.ID()
			<-dGo
			tx.Commit()
		}()
		<-dHeld
		addr0 := &arr.locks.Load().words[0]
		addr2 := &arr.locks.Load().words[2]

		batchA := []BatchAccess{ // program order 0, 2
			{Obj: arr, Index: 0, IsElem: true, Write: true},
			{Obj: arr, Index: 2, IsElem: true, Write: true},
		}
		batchB := []BatchAccess{ // program order 2, 0
			{Obj: arr, Index: 2, IsElem: true, Write: true},
			{Obj: arr, Index: 0, IsElem: true, Write: true},
		}
		bump := func(tx *Tx) {
			arr.SetRawElem(0, arr.RawElem(0)+1)
			arr.SetRawElem(2, arr.RawElem(2)+1)
		}
		aID := make(chan int, 1)
		go func() {
			defer wg.Done()
			runBatchSection(rt, noSort, batchA, bump, aID)
		}()
		a := <-aID
		// A's first word is 0 unsorted and 0 sorted: blocked on elem 0.
		h.awaitBlocked(t, a, addr0)
		bID := make(chan int, 1)
		go func() {
			defer wg.Done()
			runBatchSection(rt, noSort, batchB, bump, bID)
		}()
		b := <-bID
		if noSort {
			// B blocks on its program-order first word, elem 2.
			h.awaitBlocked(t, b, addr2)
			// D commits: B takes elem 2, marches on to elem 0, blocks.
			close(dGo)
			h.awaitBlocked(t, b, addr0)
			// C commits: A takes elem 0, marches on to elem 2 — the cycle
			// A(0)->2, B(2)->0 is closed and the detector must resolve it.
			close(cGo)
		} else {
			// Sorted, B's first word is elem 0 too: both queue behind C.
			h.awaitBlocked(t, b, addr0)
			close(dGo)
			close(cGo)
		}
		wg.Wait()
		if got0, got2 := arr.RawElem(0), arr.RawElem(2); got0 != 3 || got2 != 3 {
			t.Fatalf("noSort=%v: elems = %d/%d, want 3/3", noSort, got0, got2)
		}
		return rt.Stats().Snapshot().Deadlocks
	}

	if d := run(true); d == 0 {
		t.Fatal("unsorted opposite-order batches did not deadlock; the directed schedule lost its teeth")
	}
	if d := run(false); d != 0 {
		t.Fatalf("sorted batches hit %d deadlocks; address order should prevent the cycle", d)
	}
}
