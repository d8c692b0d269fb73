package stm

import (
	"testing"
	"time"
)

// samplePhase advances rt's ticket counter so that the next section to
// begin samples its n-th acquire, bias grant, invisible read or
// contended block: (n+ticket)&profMask == 0 (profile.go). Each such
// event of that section other than the n-th within the same period
// goes unsampled. Unlike burning the tickets with empty sections, it
// leaves the commit count alone.
func samplePhase(rt *Runtime, n uint64) {
	rt.ticket.Add(-(rt.ticket.Load() + 1 + n) & profMask)
}

// One uncontended acquire on the sample reads as one period's worth.
func TestProfileCountsUncontendedAcquires(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("ProfPlain", FieldSpec{Name: "v", Kind: KindWord})
	o := NewCommitted(c)
	v := c.Field("v")

	samplePhase(rt, 1)
	tx := rt.Begin()
	tx.WriteInt(o, v, 1)
	tx.Commit()

	rows := rt.Profile().Snapshot()
	var row *SiteProfile
	for i := range rows {
		if rows[i].Site.Class == "ProfPlain" {
			row = &rows[i]
		}
	}
	if row == nil {
		t.Fatalf("no profile row for ProfPlain.v; got %+v", rows)
	}
	if row.Site.Field != "v" || row.Site.Array {
		t.Fatalf("site identity wrong: %+v", row.Site)
	}
	if row.Acquires != ProfilePeriod || row.Contended != 0 || row.BlockTime != 0 {
		t.Fatalf("uncontended acquire miscounted: %+v", row)
	}
}

// The holder owns "hot" while a second transaction blocks on it; "cold"
// is only ever touched uncontended. The phase puts the holder's second
// acquire (cold) on the sample, and with it the next ticket's first
// contended block and first acquire: the waiter's, on hot.
func TestProfileTopSiteIsTheHotLock(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("ProfHot",
		FieldSpec{Name: "hot", Kind: KindWord},
		FieldSpec{Name: "cold", Kind: KindWord})
	o := NewCommitted(c)
	hot, cold := c.Field("hot"), c.Field("cold")

	samplePhase(rt, 2)
	holder := rt.Begin()
	holder.WriteInt(o, hot, 1)
	holder.WriteInt(o, cold, 1)

	done := make(chan struct{})
	go func() {
		retryLoop(rt, func(tx *Tx) { tx.WriteInt(o, hot, 2) })
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	holder.Commit()
	<-done

	var rows []SiteProfile
	for _, r := range rt.Profile().Snapshot() {
		if r.Site.Class == "ProfHot" {
			rows = append(rows, r)
		}
	}
	if len(rows) != 2 {
		t.Fatalf("expected rows for hot and cold, got %+v", rows)
	}
	top := rows[0]
	if top.Site.String() != "ProfHot.hot" {
		t.Fatalf("top site = %s, want ProfHot.hot (rows %+v)", top.Site, rows)
	}
	if top.Acquires != ProfilePeriod || top.Contended != 1 || top.BlockTime == 0 {
		t.Fatalf("hot site: %+v, want Acquires %d, Contended 1 and block time", top, ProfilePeriod)
	}
	if r := rows[1]; r.Acquires != ProfilePeriod || r.Contended != 0 || r.BlockTime != 0 {
		t.Fatalf("cold site: %+v, want Acquires %d and no contention", r, ProfilePeriod)
	}
}

// One section writes one period's worth of elements: whatever its
// ticket, exactly one of its acquires is on the sample.
func TestProfileArrayElementsShareOneSite(t *testing.T) {
	rt := NewRuntime()
	a := NewCommittedArray(KindWord, ProfilePeriod)

	tx := rt.Begin()
	for i := 0; i < ProfilePeriod; i++ {
		tx.WriteElem(a, i, uint64(i))
	}
	tx.Commit()

	var row *SiteProfile
	rows := rt.Profile().Snapshot()
	for i := range rows {
		if rows[i].Site.Array && rows[i].Site.Class == "[]word" {
			row = &rows[i]
		}
	}
	if row == nil {
		t.Fatalf("no array site row; got %+v", rows)
	}
	if row.Site.String() != "[]word[*]" {
		t.Fatalf("array site renders as %q, want []word[*]", row.Site.String())
	}
	if row.Acquires != ProfilePeriod {
		t.Fatalf("array acquires = %d, want %d (one per element, one shared site)", row.Acquires, ProfilePeriod)
	}
}

// TestProfileSampledAcquiresUnbiased drives sections shorter than the
// sampling period: half a period of acquires each, so without the
// ticket offset none would ever sample. Over a whole number of periods
// of consecutive tickets every phase occurs equally often, so the
// scaled estimate equals the true count: 512 × 32 = 16384.
func TestProfileSampledAcquiresUnbiased(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("ProfSampled", FieldSpec{Name: "v", Kind: KindWord})
	v := c.Field("v")

	const txns, perTx = 512, ProfilePeriod / 2
	objs := make([]*Object, perTx)
	for i := range objs {
		objs[i] = NewCommitted(c)
	}
	for i := 0; i < txns; i++ {
		tx := rt.Begin()
		for _, o := range objs {
			tx.WriteInt(o, v, int64(i))
		}
		tx.Commit()
	}

	var got uint64
	for _, r := range rt.Profile().Snapshot() {
		if r.Site.Class == "ProfSampled" {
			got = r.Acquires
		}
	}
	if got != txns*perTx {
		t.Fatalf("sampled acquire estimate = %d, want %d", got, txns*perTx)
	}
}

func TestProfileDeadlockInvolvement(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("ProfDead", FieldSpec{Name: "v", Kind: KindWord})
	a, b := NewCommitted(c), NewCommitted(c)
	v := c.Field("v")

	older := rt.Begin()
	younger := rt.Begin()
	older.WriteInt(a, v, 1)
	younger.WriteInt(b, v, 2)

	done := make(chan struct{})
	go func() {
		// Younger blocks on a, then the older's write to b closes the
		// cycle; younger is the victim (youngest member).
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

	var dead uint64
	for _, r := range rt.Profile().Snapshot() {
		if r.Site.Class == "ProfDead" {
			dead += r.Deadlocks
		}
	}
	if dead == 0 {
		t.Fatal("deadlock involvement not attributed to any ProfDead site")
	}
}

// retryLoop2 is retryLoop continuing an already-begun transaction.
func retryLoop2(rt *Runtime, tx *Tx, body func(tx *Tx)) {
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
			return true
		}()
		if done {
			tx.Commit()
			return
		}
		tx.Reset()
	}
}

func TestProfileReset(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("ProfReset", FieldSpec{Name: "v", Kind: KindWord})
	o := NewCommitted(c)

	samplePhase(rt, 1)
	tx := rt.Begin()
	tx.WriteInt(o, c.Field("v"), 1)
	tx.Commit()

	if len(rt.Profile().Snapshot()) == 0 {
		t.Fatal("no rows before Reset")
	}
	rt.Profile().Reset()
	for _, r := range rt.Profile().Snapshot() {
		if r.Site.Class == "ProfReset" {
			t.Fatalf("row survived Reset: %+v", r)
		}
	}
}

func TestProfileFlushedOnAbortReset(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("ProfAbort", FieldSpec{Name: "v", Kind: KindWord})
	o := NewCommitted(c)

	samplePhase(rt, 1)
	tx := rt.Begin()
	tx.WriteInt(o, c.Field("v"), 1)
	runAborting(t, func() { tx.Abort("testing") })
	tx.Reset()
	tx.Commit()

	var acq uint64
	for _, r := range rt.Profile().Snapshot() {
		if r.Site.Class == "ProfAbort" {
			acq += r.Acquires
		}
	}
	if acq != ProfilePeriod {
		t.Fatalf("site acquires = %d, want %d: the aborted attempt's sampled acquire was lost at Reset", acq, ProfilePeriod)
	}
}
