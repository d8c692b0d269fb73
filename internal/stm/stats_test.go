package stm

import (
	"reflect"
	"strings"
	"testing"
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
// delta whose field j holds j+1 must reach Profile.Snapshot through
// flushProfile in every field, add on a second flush, and be zeroed by
// Reset.
func TestSiteCounterDeclarationComplete(t *testing.T) {
	typ := reflect.TypeOf(SiteCounters{})
	if typ.NumField() != numSiteCounters {
		t.Fatalf("SiteCounters has %d fields but %d words: every counter must be 8 bytes", typ.NumField(), numSiteCounters)
	}
	c := NewClass("SiteDecl", FieldSpec{Name: "v", Kind: KindWord})
	site := c.fields[c.Field("v")].siteID
	rt := NewRuntime()
	tx := rt.Begin()
	tx.ensureSlot()
	for round := uint64(1); round <= 2; round++ {
		d := tx.profAt(site)
		for j := range d.words() {
			d.words()[j] = uint64(j + 1)
		}
		tx.flushProfile()
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
	tx.Commit()
}
