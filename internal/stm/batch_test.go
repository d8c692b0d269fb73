package stm

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
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

	// A write to a shared object's final field panics in the batch, as
	// WriteWord does: the raw store that would follow checks nothing.
	tx = rt.Begin()
	got := func() (r any) {
		defer func() { r = recover() }()
		tx.AcquireBatch([]BatchAccess{{Obj: shared, Field: fk, Write: true}})
		return nil
	}()
	if got == nil {
		t.Fatal("batch write to a shared final field did not panic")
	}
	if _, ok := got.(*Aborted); ok {
		t.Fatalf("batch write to a shared final field aborted instead of panicking: %v", got)
	}
	// An element access on a non-array panics even when a field access
	// with the same index precedes it.
	got = func() (r any) {
		defer func() { r = recover() }()
		tx.AcquireBatch([]BatchAccess{{Obj: shared, Field: 0}, {Obj: shared, Index: 0, IsElem: true}})
		return nil
	}()
	if got == nil {
		t.Fatal("batch element access on a non-array did not panic")
	}
	tx.Commit()
}

// TestAcquireBatchMatchesSingleWordPath: a batch leaves a transaction
// exactly as the same accesses through ReadWord/ReadWordForWrite and
// ReadElem/ReadElemForWrite would, taken in the batch order with one
// access per distinct word in its strongest mode: the same words held
// in the same modes, the same logs, the same check and acquire counts.
func TestAcquireBatchMatchesSingleWordPath(t *testing.T) {
	c := NewClass("BatchEq",
		FieldSpec{Name: "a", Kind: KindWord},
		FieldSpec{Name: "b", Kind: KindWord},
		FieldSpec{Name: "k", Kind: KindWord, Final: true},
		FieldSpec{Name: "d", Kind: KindWord})
	const arrLen = 4

	// One access: target 0-1 shared objects, 2 shared array, 3 new
	// object, 4 thread-local object, 5 new array.
	type access struct {
		target int
		idx    int // field, or element
		write  bool
	}
	type outcome struct {
		held                   string // per shared word: '-', 'r' or 'w'
		lockLog, undo          int
		owned, isNew, acquired uint64
	}
	run := func(shared []*Object, accs []access, batch bool) outcome {
		rt := NewRuntime()
		tx := rt.Begin()
		objs := append(shared[:3:3], tx.New(c), tx.NewLocal(c), tx.NewArray(KindWord, arrLen))
		bas := make([]BatchAccess, len(accs))
		for i, a := range accs {
			o := objs[a.target]
			bas[i] = BatchAccess{Obj: o, Write: a.write}
			if o.class.isArray {
				bas[i].IsElem, bas[i].Index = true, a.idx
			} else {
				bas[i].Field = FieldID(a.idx)
			}
		}
		if batch {
			tx.AcquireBatch(bas)
		} else {
			// The batch order, spelled out: object address, index,
			// writes first; the first access of a word covers the rest.
			slices.SortStableFunc(bas, func(x, y BatchAccess) int {
				xi, yi := int(x.Field), int(y.Field)
				if x.IsElem {
					xi, yi = x.Index, y.Index
				}
				return cmp.Or(
					cmp.Compare(uintptr(unsafe.Pointer(x.Obj)), uintptr(unsafe.Pointer(y.Obj))),
					cmp.Compare(xi, yi),
					cmp.Compare(boolInt(y.Write), boolInt(x.Write)))
			})
			for i, a := range bas {
				if i > 0 && a.Obj == bas[i-1].Obj && a.Field == bas[i-1].Field && a.Index == bas[i-1].Index {
					continue
				}
				switch {
				case a.IsElem && a.Write:
					tx.ReadElemForWrite(a.Obj, a.Index)
				case a.IsElem:
					tx.ReadElem(a.Obj, a.Index)
				case a.Write:
					tx.ReadWordForWrite(a.Obj, a.Field)
				default:
					tx.ReadWord(a.Obj, a.Field)
				}
			}
		}
		var out outcome
		for _, o := range shared {
			slab := o.locks.Load()
			for i := 0; i < o.numLockSlots(); i++ {
				mode := byte('-')
				if slab != unallocSlab {
					if w := atomic.LoadUint64(&slab.words[i]); w&tx.mask != 0 {
						mode = 'r'
						if wordIsWrite(w) {
							mode = 'w'
						}
					}
				}
				out.held += string(mode)
			}
			out.held += "|"
		}
		out.lockLog, out.undo = len(tx.lockLog), len(tx.undo)
		out.owned, out.isNew, out.acquired = tx.n.CheckOwned, tx.n.CheckNew, tx.n.Acquire
		tx.Reset()
		tx.AbandonAfterReset()
		return out
	}

	rng := rand.New(rand.NewPCG(34, 1))
	for trial := 0; trial < 300; trial++ {
		accs := make([]access, 1+rng.IntN(8))
		for i := range accs {
			a := access{target: rng.IntN(6), write: rng.IntN(2) == 0}
			if a.target == 2 || a.target == 5 {
				a.idx = rng.IntN(arrLen)
			} else {
				a.idx = rng.IntN(c.NumFields())
				// A final field may be written only on a new object.
				if c.FieldFinal(FieldID(a.idx)) && a.target != 3 {
					a.write = false
				}
			}
			accs[i] = a
		}
		if trial%3 == 0 {
			// Read and write of one word, in both program orders.
			accs = append(accs, access{target: 0, idx: 1}, access{target: 0, idx: 1, write: true})
			accs = append([]access{{target: 2, idx: 3, write: true}}, append(accs, access{target: 2, idx: 3})...)
		}
		shared := []*Object{NewCommitted(c), NewCommitted(c), NewCommittedArray(KindWord, arrLen)}
		got, want := run(shared, accs, true), run(shared, accs, false)
		if got != want {
			t.Fatalf("trial %d, accesses %+v:\nbatch        %+v\nsingle words %+v", trial, accs, got, want)
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
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

// runSection retries an atomic section until it commits. The first
// attempt's transaction ID is reported on idCh.
func runSection(rt *Runtime, body func(tx *Tx), idCh chan<- int) {
	for {
		tx := rt.Begin()
		if idCh != nil {
			idCh <- tx.ID()
			idCh = nil
		}
		ok := func() (committed bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, is := r.(*Aborted); !is {
						panic(r)
					}
					tx.Reset()
				}
			}()
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
// duel of the batch path. Two sections name the same two array elements
// in opposite program orders. As plain writes in program order, the
// choreography below drives them into a genuine cycle — A holds elem 0
// and waits for elem 2, B holds elem 2 and waits for elem 0 — which only
// the deadlock detector resolves (Deadlocks > 0). As batches, whose
// address sort is production behavior, the identical choreography
// degenerates to a queue on the common first word and the detector never
// fires.
func TestBatchSortedOrderPreventsDeadlock(t *testing.T) {
	// plain and batched return the body of a section that writes
	// elements first and second, in that program order.
	plain := func(arr *Object, first, second int) func(tx *Tx) {
		return func(tx *Tx) {
			tx.WriteElem(arr, first, 3)
			tx.WriteElem(arr, second, 3)
		}
	}
	batched := func(arr *Object, first, second int) func(tx *Tx) {
		accs := []BatchAccess{
			{Obj: arr, Index: first, IsElem: true, Write: true},
			{Obj: arr, Index: second, IsElem: true, Write: true},
		}
		return func(tx *Tx) {
			tx.AcquireBatch(accs)
			arr.SetRawElem(0, arr.RawElem(0)+1)
			arr.SetRawElem(2, arr.RawElem(2)+1)
		}
	}
	run := func(batch bool) uint64 {
		sec := plain
		if batch {
			sec = batched
		}
		h := newBlockWatcher()
		rt := NewRuntimeOpts(Options{Hooks: h})
		arr := NewCommittedArray(KindWord, 4)

		// Seed holders so both sections block on their first word with
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

		aID := make(chan int, 1)
		go func() {
			defer wg.Done()
			runSection(rt, sec(arr, 0, 2), aID)
		}()
		a := <-aID
		// A's first word is 0 in program order and sorted: blocked on elem 0.
		h.awaitBlocked(t, a, addr0)
		bID := make(chan int, 1)
		go func() {
			defer wg.Done()
			runSection(rt, sec(arr, 2, 0), bID)
		}()
		b := <-bID
		if !batch {
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
		// Plain sections store 3; two batched increments over C's and
		// D's 1 reach 3 too.
		if got0, got2 := arr.RawElem(0), arr.RawElem(2); got0 != 3 || got2 != 3 {
			t.Fatalf("batch=%v: elems = %d/%d, want 3/3", batch, got0, got2)
		}
		return rt.Stats().Snapshot().Deadlocks
	}

	if d := run(false); d == 0 {
		t.Fatal("opposite-order plain writes did not deadlock; the directed schedule lost its teeth")
	}
	if d := run(true); d != 0 {
		t.Fatalf("sorted batches hit %d deadlocks; address order should prevent the cycle", d)
	}
}

// TestAbortedBatchLeavesReplayInvisible: a batch pins invisible reads
// off only while it runs. Here the batch upgrades w, whose visible grant
// revalidates the invisible read of y that a foreign commit has made
// stale, and unwinds with *Aborted; noInvis survives Reset, so a pin
// left behind would make the replay read z visibly.
func TestAbortedBatchLeavesReplayInvisible(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("BatchInvis",
		FieldSpec{Name: "y", Kind: KindWord},
		FieldSpec{Name: "z", Kind: KindWord},
		FieldSpec{Name: "w", Kind: KindWord})
	y, z, w := c.Field("y"), c.Field("z"), c.Field("w")
	o := NewCommitted(c)
	rt.SeedInvisible(c, y)
	rt.SeedInvisible(c, z)
	primeInvis(rt, o, y)

	tx := rt.Begin()
	tx.ReadWord(o, y)
	if len(tx.readSet) != 1 {
		t.Fatalf("read of y was not invisible (read-set %d)", len(tx.readSet))
	}
	tx.ReadWord(o, w) // visible: w's site was never seeded
	foreign := rt.Begin()
	foreign.WriteWord(o, y, 1)
	foreign.Commit()

	got := func() (r any) {
		defer func() { r = recover() }()
		tx.AcquireBatch([]BatchAccess{{Obj: o, Field: w, Write: true}})
		return nil
	}()
	if _, ok := got.(*Aborted); !ok {
		t.Fatalf("batch over a stale read-set returned; recovered %v, want *Aborted", got)
	}
	tx.Reset()
	tx.ReadWord(o, z)
	if len(tx.readSet) != 1 {
		t.Fatalf("replay's read of z was not invisible (read-set %d): the aborted batch left noInvis set", len(tx.readSet))
	}
	tx.Commit()
}
