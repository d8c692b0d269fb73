package stm

import (
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// TestCounterDeclarationComplete drives every derived operation from a
// Tx counter block whose field i holds i+1, so a field the [n]uint64
// view misses (a non-8-byte field, a loop bound) or a field declared
// without its exposition tag fails by name.
func TestCounterDeclarationComplete(t *testing.T) {
	typ := reflect.TypeOf(StatsSnapshot{})
	if typ.NumField() != numCounters {
		t.Fatalf("StatsSnapshot has %d fields but %d words: every counter must be one uint64", typ.NumField(), numCounters)
	}
	rt := NewRuntime()
	tx := rt.Begin()
	fill := func() {
		for i := 0; i < typ.NumField(); i++ {
			reflect.ValueOf(&tx.n).Elem().Field(i).SetUint(uint64(i + 1))
		}
	}
	// check asserts field i of got holds mul*(i+1), by name.
	check := func(what string, got StatsSnapshot, mul uint64) {
		t.Helper()
		for i := 0; i < typ.NumField(); i++ {
			if v := reflect.ValueOf(got).Field(i).Uint(); v != mul*uint64(i+1) {
				t.Errorf("%s: %s = %d, want %d", what, typ.Field(i).Name, v, mul*uint64(i+1))
			}
		}
	}

	fill()
	tx.flushCounters()
	check("flushed block (must be zeroed)", tx.n, 0)
	first := rt.Stats().Snapshot()
	check("Snapshot after one flush", first, 1)
	check("Sub(zero)", first.Sub(StatsSnapshot{}), 1)

	fill()
	tx.flushCounters()
	second := rt.Stats().Snapshot()
	check("Snapshot after a second flush (adds, not stores)", second, 2)
	check("Sub(first)", second.Sub(first), 1)

	rt.Stats().Reset()
	check("Snapshot after Reset", rt.Stats().Snapshot(), 0)
	tx.Commit()

	checkTags(t, typ)
	checkTags(t, reflect.TypeOf(SiteCounters{}))
}

// checkTags asserts every field of a counter declaration says where it
// is exposed: a prom tag (empty means /stats JSON only), and a help text
// wherever a new /metrics family starts.
func checkTags(t *testing.T, typ reflect.Type) {
	t.Helper()
	family := ""
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		prom, ok := f.Tag.Lookup("prom")
		if !ok {
			t.Errorf("%s.%s has no prom tag (use prom:\"\" for a /stats-only counter)", typ.Name(), f.Name)
		}
		if fam, _, _ := strings.Cut(prom, "{"); prom != "" && fam != family {
			family = fam
			if f.Tag.Get("help") == "" {
				t.Errorf("%s.%s starts /metrics family %s without a help tag", typ.Name(), f.Name, fam)
			}
		}
	}
}

// TestSiteCounterDeclarationComplete is the per-site counterpart: a
// cell whose field j took an add of j+1 must show it in every field of
// Profile.Snapshot, a second round must add to it, and Reset must zero
// the cell.
func TestSiteCounterDeclarationComplete(t *testing.T) {
	typ := reflect.TypeOf(SiteCounters{})
	if typ.NumField() != numSiteCounters {
		t.Fatalf("SiteCounters has %d fields but %d words: every counter must be 8 bytes", typ.NumField(), numSiteCounters)
	}
	c := NewClass("SiteDecl", FieldSpec{Name: "v", Kind: KindWord})
	rt := NewRuntime()
	cell := &rt.sites.at(c.fields[c.Field("v")].siteID).n
	for round := uint64(1); round <= 2; round++ {
		for j := range cell.words() {
			atomic.AddUint64(&cell.words()[j], uint64(j+1))
		}
		rows := rt.Profile().Snapshot()
		if len(rows) != 1 {
			t.Fatalf("round %d: %d profile rows, want 1", round, len(rows))
		}
		for j, v := range rows[0].words() {
			if v != round*uint64(j+1) {
				t.Errorf("round %d: %s = %d, want %d", round, typ.Field(j).Name, v, round*uint64(j+1))
			}
		}
	}
	rt.Profile().Reset()
	if rows := rt.Profile().Snapshot(); len(rows) != 0 {
		t.Errorf("Reset left %d rows with counts: %+v", len(rows), rows)
	}
}

// TestSiteCountersChargedAtEvent pins the per-site route: an event is
// in its site's cell as soon as it happens, not when its section
// commits. The phase puts the upgrader's read on the sample, and
// neither the reader's read nor the upgrade; the upgrade parks behind
// the reader, so it is both contended and an upgrade.
func TestSiteCountersChargedAtEvent(t *testing.T) {
	rt := NewRuntime()
	samplePhase(rt, 1)
	c := NewClass("SiteAtEvent", FieldSpec{Name: "v", Kind: KindWord})
	v := c.Field("v")
	o := NewCommitted(c)
	row := func() SiteCounters {
		for _, r := range rt.Profile().Snapshot() {
			if r.Site.Class == "SiteAtEvent" {
				return r.SiteCounters
			}
		}
		return SiteCounters{}
	}

	upgrader, reader := rt.Begin(), rt.Begin()
	upgrader.ReadWord(o, v)
	if got := row().Acquires; got != ProfilePeriod {
		t.Fatalf("sampled acquire: Acquires = %d before commit, want %d", got, ProfilePeriod)
	}
	reader.ReadWord(o, v)
	done := make(chan struct{})
	go func() {
		upgrader.WriteWord(o, v, 1) // parks: reader still holds the word
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for r := row(); r.Contended == 0 || r.Upgrades == 0; r = row() {
		if time.Now().After(deadline) {
			t.Fatalf("parked upgrade not charged before commit: %+v", r)
		}
		time.Sleep(time.Millisecond)
	}
	reader.Commit()
	<-done
	upgrader.Commit()
	if r := row(); r.Acquires != ProfilePeriod || r.Contended != 1 || r.Upgrades != 1 {
		t.Errorf("after both commits: %+v, want Acquires %d, Contended 1, Upgrades 1", r, ProfilePeriod)
	}
}

// TestAbortsVisibleWhileRetrying pins the one exception AbortRate rests
// on: a section that has reset and not yet committed already shows its
// abort, so a livelocked runtime reads +Inf, not 0.
func TestAbortsVisibleWhileRetrying(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("AbortVisible", FieldSpec{Name: "v", Kind: KindWord})
	o := NewCommitted(c)
	tx := rt.Begin()
	tx.WriteWord(o, c.Field("v"), 1)
	tx.Reset()
	s := rt.Stats().Snapshot()
	if s.Aborts != 1 || s.Commits != 0 || !math.IsInf(s.AbortRate(), 1) {
		t.Fatalf("mid-retry: Aborts %d, Commits %d, AbortRate %v; want 1, 0, +Inf", s.Aborts, s.Commits, s.AbortRate())
	}
	tx.Commit()
	if s := rt.Stats().Snapshot(); s.Aborts != 1 || s.Commits != 1 {
		t.Fatalf("after commit: Aborts %d, Commits %d; want 1, 1", s.Aborts, s.Commits)
	}
}

// TestRWSetBytesCountsEntrySizes pins Table 8's R-W set figure for one
// section with two lock-log entries, one undo entry and one invisible
// read: each entry is charged at its in-memory size (16, 48 and 24
// bytes on a 64-bit platform).
func TestRWSetBytesCountsEntrySizes(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("RWSetBytes",
		FieldSpec{Name: "a", Kind: KindWord},
		FieldSpec{Name: "b", Kind: KindWord},
		FieldSpec{Name: "c", Kind: KindWord})
	a, b, cf := c.Field("a"), c.Field("b"), c.Field("c")
	o := NewCommitted(c)
	rt.SeedInvisible(c, a)
	primeInvis(rt, o, a)

	before := rt.Stats().Snapshot()
	tx := rt.Begin()
	tx.ReadWord(o, a)      // invisible: one read-set entry
	tx.ReadWord(o, b)      // visible: one lock-log entry
	tx.WriteWord(o, cf, 1) // one lock-log entry, one undo entry
	if len(tx.lockLog) != 2 || len(tx.undo) != 1 || len(tx.readSet) != 1 {
		t.Fatalf("logs: lock %d, undo %d, read-set %d; want 2, 1, 1", len(tx.lockLog), len(tx.undo), len(tx.readSet))
	}
	tx.Commit()

	want := 2*unsafe.Sizeof(lockLogEntry{}) + unsafe.Sizeof(undoEntry{}) + unsafe.Sizeof(invisRead{})
	if got := rt.Stats().Snapshot().Sub(before).RWSetBytes; got != uint64(want) {
		t.Fatalf("RWSetBytes = %d, want %d", got, want)
	}
}
