package stm

import (
	"testing"
)

var accountClass = NewClass("Account",
	FieldSpec{Name: "balance", Kind: KindWord},
	FieldSpec{Name: "owner", Kind: KindStr},
	FieldSpec{Name: "next", Kind: KindRef},
	FieldSpec{Name: "id", Kind: KindWord, Final: true},
)

func runAborting(t *testing.T, f func()) *Aborted {
	t.Helper()
	var ab *Aborted
	func() {
		defer func() {
			if r := recover(); r != nil {
				var ok bool
				if ab, ok = r.(*Aborted); !ok {
					panic(r)
				}
			}
		}()
		f()
	}()
	return ab
}

func TestBasicReadWrite(t *testing.T) {
	rt := NewRuntime()
	o := NewCommitted(accountClass)
	bal := accountClass.Field("balance")
	owner := accountClass.Field("owner")
	next := accountClass.Field("next")

	tx := rt.Begin()
	tx.WriteInt(o, bal, 100)
	tx.WriteStr(o, owner, "alice")
	o2 := tx.New(accountClass)
	tx.WriteRef(o, next, o2)
	if tx.ReadInt(o, bal) != 100 || tx.ReadStr(o, owner) != "alice" || tx.ReadRef(o, next) != o2 {
		t.Fatal("reads within transaction do not see own writes")
	}
	tx.Commit()

	tx2 := rt.Begin()
	if tx2.ReadInt(o, bal) != 100 || tx2.ReadStr(o, owner) != "alice" || tx2.ReadRef(o, next) != o2 {
		t.Fatal("committed values not visible to later transaction")
	}
	tx2.Commit()
}

func TestFloatBoolHelpers(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("V", FieldSpec{Name: "f", Kind: KindWord}, FieldSpec{Name: "b", Kind: KindWord})
	o := NewCommitted(c)
	tx := rt.Begin()
	tx.WriteFloat(o, c.Field("f"), 3.25)
	tx.WriteBool(o, c.Field("b"), true)
	if tx.ReadFloat(o, c.Field("f")) != 3.25 || !tx.ReadBool(o, c.Field("b")) {
		t.Fatal("float/bool round trip failed")
	}
	tx.WriteBool(o, c.Field("b"), false)
	if tx.ReadBool(o, c.Field("b")) {
		t.Fatal("bool false round trip failed")
	}
	tx.Commit()
}

func TestResetRestoresAllKinds(t *testing.T) {
	rt := NewRuntime()
	o := NewCommitted(accountClass)
	bal, owner, next := accountClass.Field("balance"), accountClass.Field("owner"), accountClass.Field("next")

	init := rt.Begin()
	init.WriteInt(o, bal, 7)
	init.WriteStr(o, owner, "bob")
	init.Commit()

	tx := rt.Begin()
	tx.WriteInt(o, bal, 99)
	tx.WriteStr(o, owner, "mallory")
	tx.WriteRef(o, next, tx.New(accountClass))
	tx.Reset()

	check := rt.Begin()
	if check.ReadInt(o, bal) != 7 || check.ReadStr(o, owner) != "bob" || check.ReadRef(o, next) != nil {
		t.Fatalf("rollback incomplete: bal=%d owner=%q next=%v",
			check.ReadInt(o, bal), check.ReadStr(o, owner), check.ReadRef(o, next))
	}
	check.Commit()

	// The reset transaction is reusable for a retry.
	tx.WriteInt(o, bal, 8)
	tx.Commit()
}

func TestResetRestoresInReverseOrder(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("C", FieldSpec{Name: "v", Kind: KindWord})
	o := NewCommitted(c)
	v := c.Field("v")

	// Thread-local objects log an undo entry per write; reverse-order
	// restore must land on the oldest value.
	lo := func() *Object {
		tx := rt.Begin()
		defer tx.Commit()
		return tx.NewLocal(c)
	}()

	tx := rt.Begin()
	tx.WriteInt(lo, v, 1)
	tx.WriteInt(lo, v, 2)
	tx.WriteInt(lo, v, 3)
	tx.Reset()
	if got := tx.ReadInt(lo, v); got != 0 {
		t.Fatalf("reverse-order undo broken: got %d, want 0", got)
	}
	tx.WriteInt(o, v, 5)
	tx.Commit()
}

func TestNewObjectNeedsNoLocks(t *testing.T) {
	rt := NewRuntime()
	tx := rt.Begin()
	o := tx.New(accountClass)
	bal := accountClass.Field("balance")
	tx.WriteInt(o, bal, 42)
	_ = tx.ReadInt(o, bal)
	if o.locks.Load() != nil {
		t.Fatal("new object grew a lock slab before commit")
	}
	tx.flushCounters()
	s := rt.Stats().Snapshot()
	if s.Acquire != 0 {
		t.Fatalf("accesses to new object acquired %d locks, want 0", s.Acquire)
	}
	if s.CheckNew != 2 {
		t.Fatalf("CheckNew = %d, want 2", s.CheckNew)
	}
	tx.Commit()
	if o.locks.Load() != unallocSlab {
		t.Fatal("commit did not move new object to UNALLOC")
	}
}

func TestFinalFieldNeedsNoSync(t *testing.T) {
	rt := NewRuntime()
	id := accountClass.Field("id")

	tx := rt.Begin()
	o := tx.New(accountClass)
	tx.WriteInt(o, id, 1234) // construction
	tx.Commit()

	tx2 := rt.Begin()
	if tx2.ReadInt(o, id) != 1234 {
		t.Fatal("final value lost")
	}
	tx2.flushCounters()
	s := rt.Stats().Snapshot()
	if s.Acquire != 0 || s.CheckOwned != 0 {
		t.Fatalf("final read synchronized: acq=%d owned=%d", s.Acquire, s.CheckOwned)
	}
	tx2.Commit()
}

func TestFinalWriteAfterConstructionPanics(t *testing.T) {
	rt := NewRuntime()
	o := NewCommitted(accountClass)
	tx := rt.Begin()
	defer tx.Commit()
	defer func() {
		if recover() == nil {
			t.Fatal("write to final field after construction did not panic")
		}
	}()
	tx.WriteInt(o, accountClass.Field("id"), 1)
}

func TestKindMismatchPanics(t *testing.T) {
	rt := NewRuntime()
	o := NewCommitted(accountClass)
	tx := rt.Begin()
	defer tx.Commit()
	defer func() {
		if recover() == nil {
			t.Fatal("kind-mismatched access did not panic")
		}
	}()
	tx.ReadStr(o, accountClass.Field("balance"))
}

func TestArrayElementAccess(t *testing.T) {
	rt := NewRuntime()
	tx := rt.Begin()
	aw := tx.NewArray(KindWord, 4)
	ar := tx.NewArray(KindRef, 2)
	as := tx.NewArray(KindStr, 2)
	for i := 0; i < 4; i++ {
		tx.WriteElem(aw, i, uint64(i*i))
	}
	o := tx.New(accountClass)
	tx.WriteElemRef(ar, 1, o)
	tx.WriteElemStr(as, 0, "hello")
	tx.Commit()

	tx2 := rt.Begin()
	for i := 0; i < 4; i++ {
		if tx2.ReadElem(aw, i) != uint64(i*i) {
			t.Fatalf("elem %d wrong", i)
		}
	}
	if tx2.ReadElemRef(ar, 1) != o || tx2.ReadElemRef(ar, 0) != nil {
		t.Fatal("ref elems wrong")
	}
	if tx2.ReadElemStr(as, 0) != "hello" || tx2.ReadElemStr(as, 1) != "" {
		t.Fatal("str elems wrong")
	}
	tx2.Commit()
}

func TestArrayElementUndo(t *testing.T) {
	rt := NewRuntime()
	a := NewCommittedArray(KindWord, 3)
	tx := rt.Begin()
	tx.WriteElem(a, 1, 11)
	tx.Commit()

	tx2 := rt.Begin()
	tx2.WriteElem(a, 1, 99)
	tx2.Reset()
	if got := tx2.ReadElem(a, 1); got != 11 {
		t.Fatalf("array undo broken: got %d, want 11", got)
	}
	tx2.Commit()
}

func TestElementGranularity(t *testing.T) {
	// Two transactions writing different elements of one array must not
	// conflict (paper §3.2: element-level granularity avoids false
	// sharing).
	rt := NewRuntime()
	a := NewCommittedArray(KindWord, 2)
	tx1 := rt.Begin()
	tx2 := rt.Begin()
	tx1.WriteElem(a, 0, 1)
	tx2.WriteElem(a, 1, 2) // must not block
	tx1.Commit()
	tx2.Commit()

	check := rt.Begin()
	if check.ReadElem(a, 0) != 1 || check.ReadElem(a, 1) != 2 {
		t.Fatal("element writes lost")
	}
	check.Commit()
}

func TestFieldGranularity(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("Pair", FieldSpec{Name: "a", Kind: KindWord}, FieldSpec{Name: "b", Kind: KindWord})
	o := NewCommitted(c)
	tx1 := rt.Begin()
	tx2 := rt.Begin()
	tx1.WriteInt(o, c.Field("a"), 1)
	tx2.WriteInt(o, c.Field("b"), 2) // different field: no conflict
	tx1.Commit()
	tx2.Commit()
}

func TestCheckOwnedCounting(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("C", FieldSpec{Name: "v", Kind: KindWord})
	o := NewCommitted(c)
	v := c.Field("v")
	tx := rt.Begin()
	tx.WriteInt(o, v, 1) // init + acquire
	tx.WriteInt(o, v, 2) // owned
	_ = tx.ReadInt(o, v) // owned
	tx.flushCounters()
	s := rt.Stats().Snapshot()
	if s.Init != 1 || s.Acquire != 1 || s.CheckOwned != 2 {
		t.Fatalf("counters init=%d acq=%d owned=%d, want 1/1/2", s.Init, s.Acquire, s.CheckOwned)
	}
	tx.Commit()
}

func TestUpgradeLogsUndoOnce(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("C", FieldSpec{Name: "v", Kind: KindWord})
	o := NewCommitted(c)
	v := c.Field("v")
	seed := rt.Begin()
	seed.WriteInt(o, v, 5)
	seed.Commit()

	tx := rt.Begin()
	if tx.ReadInt(o, v) != 5 {
		t.Fatal("seed lost")
	}
	tx.WriteInt(o, v, 6) // upgrade: captures old value 5
	tx.WriteInt(o, v, 7) // owned: no new undo entry
	if len(tx.undo) != 1 || tx.undo[0].oldWord != 5 {
		t.Fatalf("undo log = %+v, want single entry with old value 5", tx.undo)
	}
	tx.Reset()
	if got := tx.ReadInt(o, v); got != 5 {
		t.Fatalf("after reset: %d, want 5", got)
	}
	tx.Commit()
}

func TestOnCommitRunsAfterRelease(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("C", FieldSpec{Name: "v", Kind: KindWord})
	o := NewCommitted(c)
	v := c.Field("v")

	tx := rt.Begin()
	tx.WriteInt(o, v, 1)
	ran := false
	tx.OnCommit(func() {
		ran = true
		// The deferred action runs after locks are freed: another
		// transaction can access the field now.
		tx2 := rt.Begin()
		if tx2.ReadInt(o, v) != 1 {
			t.Error("deferred action does not see committed state")
		}
		tx2.Commit()
	})
	tx.Commit()
	if !ran {
		t.Fatal("OnCommit action did not run")
	}
}

func TestOnCommitDroppedOnReset(t *testing.T) {
	rt := NewRuntime()
	tx := rt.Begin()
	ran := false
	tx.OnCommit(func() { ran = true })
	tx.Reset()
	tx.Commit()
	if ran {
		t.Fatal("OnCommit action survived an abort")
	}
}

type fakeResource struct {
	commits, rollbacks int
	buffered           int
}

func (r *fakeResource) Commit()            { r.commits++ }
func (r *fakeResource) Rollback()          { r.rollbacks++ }
func (r *fakeResource) BufferedBytes() int { return r.buffered }

func TestResourceLifecycle(t *testing.T) {
	rt := NewRuntime()
	r := &fakeResource{buffered: 100}
	tx := rt.Begin()
	tx.Register(r)
	tx.Register(r) // dedupe
	tx.Reset()
	if r.rollbacks != 1 || r.commits != 0 {
		t.Fatalf("after reset: commits=%d rollbacks=%d", r.commits, r.rollbacks)
	}
	tx.Register(r)
	tx.Commit()
	if r.commits != 1 || r.rollbacks != 1 {
		t.Fatalf("after commit: commits=%d rollbacks=%d", r.commits, r.rollbacks)
	}
	if rt.Stats().Snapshot().BufferBytes != 200 {
		t.Fatalf("BufferBytes = %d, want 200 (100 per transaction end)", rt.Stats().Snapshot().BufferBytes)
	}
}

// TestEndedAttemptDropsResources: a pooled Tx must not keep a wrapper's
// per-transaction state alive, so ending an attempt zeroes the whole
// backing array of the resource log.
func TestEndedAttemptDropsResources(t *testing.T) {
	rt := NewRuntime()
	tx := rt.Begin()
	check := func(after string) {
		t.Helper()
		for i, r := range tx.resources[:cap(tx.resources)] {
			if r != nil {
				t.Fatalf("after %s: resources[%d] still holds %T", after, i, r)
			}
		}
	}
	tx.Register(&fakeResource{})
	tx.Register(&fakeResource{})
	tx.Reset()
	check("Reset")
	tx.Register(&fakeResource{})
	if got := tx.Resources(); len(got) != 1 {
		t.Fatalf("Resources() = %d entries after one Register, want 1", len(got))
	}
	tx.Commit()
	check("Commit")
}

func TestLocalObjectsSkipLocking(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("TL", FieldSpec{Name: "v", Kind: KindWord})
	tx := rt.Begin()
	lo := tx.NewLocal(c)
	la := tx.NewLocalArray(KindWord, 3)
	tx.Commit()

	tx2 := rt.Begin()
	tx2.WriteInt(lo, c.Field("v"), 9)
	tx2.WriteElem(la, 2, 4)
	tx2.flushCounters()
	s := rt.Stats().Snapshot()
	if s.Acquire != 0 || s.Init != 0 {
		t.Fatalf("local accesses synchronized: acq=%d init=%d", s.Acquire, s.Init)
	}
	tx2.Reset()
	if tx2.ReadInt(lo, c.Field("v")) != 0 || tx2.ReadElem(la, 2) != 0 {
		t.Fatal("local undo broken")
	}
	tx2.Commit()
	if !lo.IsLocal() || !la.IsLocal() {
		t.Fatal("IsLocal lost")
	}
}

func TestCommitTwicePanics(t *testing.T) {
	rt := NewRuntime()
	tx := rt.Begin()
	tx.Commit()
	defer func() {
		if recover() == nil {
			t.Fatal("double commit did not panic")
		}
	}()
	tx.Commit()
}

func TestAbandonAfterReset(t *testing.T) {
	rt := NewRuntimeOpts(Options{MaxConcurrentTxns: 1})
	tx := rt.Begin()
	tx.Reset()
	tx.AbandonAfterReset()
	// The ID must be free again.
	tx2 := rt.Begin()
	tx2.Commit()
}

// TestTable1Matrix asserts the synchronization matrix of paper Table 1:
// which access types check, lock, and undo.
func TestTable1Matrix(t *testing.T) {
	type row struct {
		name              string
		run               func(tx *Tx)
		check, lock, undo bool
	}
	c := NewClass("T1",
		FieldSpec{Name: "plain", Kind: KindWord},
		FieldSpec{Name: "fin", Kind: KindWord, Final: true},
	)
	shared := func(rt *Runtime) *Object {
		tx := rt.Begin()
		o := tx.New(c)
		tx.WriteInt(o, c.Field("fin"), 1)
		tx.Commit()
		return o
	}
	rows := []row{
		{
			name:  "non-final field (check+lock+undo)",
			check: true, lock: true, undo: true,
		},
		{
			name: "final field (nothing)",
		},
		{
			name:  "new non-final field (check only)",
			check: true,
		},
		{
			name: "local with canSplit (undo only)",
			undo: true,
		},
	}
	for _, r := range rows {
		rt := NewRuntime()
		o := shared(rt)
		tx := rt.Begin()
		var undoBefore int
		switch r.name {
		case "non-final field (check+lock+undo)":
			undoBefore = len(tx.undo)
			tx.WriteInt(o, c.Field("plain"), 2)
		case "final field (nothing)":
			undoBefore = len(tx.undo)
			_ = tx.ReadInt(o, c.Field("fin"))
		case "new non-final field (check only)":
			n := tx.New(c)
			undoBefore = len(tx.undo)
			tx.WriteInt(n, c.Field("plain"), 2)
		case "local with canSplit (undo only)":
			lo := tx.NewLocal(c)
			undoBefore = len(tx.undo)
			tx.WriteInt(lo, c.Field("plain"), 2)
		}
		tx.flushCounters()
		s := rt.Stats().Snapshot()
		checked := s.CheckNew+s.CheckOwned+s.Acquire > 0
		locked := s.Acquire > 0
		undone := len(tx.undo) > undoBefore
		if checked != r.check || locked != r.lock || undone != r.undo {
			t.Errorf("%s: check=%t lock=%t undo=%t, want %t/%t/%t",
				r.name, checked, locked, undone, r.check, r.lock, r.undo)
		}
		tx.Commit()
	}
}
