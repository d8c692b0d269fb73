package stm

import (
	"sync"
	"testing"
)

// yieldRecorder is a minimal no-op Hooks implementation that records
// every Yield point and can force individual CAS points to fail once.
type yieldRecorder struct {
	mu       sync.Mutex
	yields   []YieldPoint
	failOnce map[YieldPoint]int // remaining forced failures per point
}

func (h *yieldRecorder) Yield(p YieldPoint) {
	h.mu.Lock()
	h.yields = append(h.yields, p)
	h.mu.Unlock()
}
func (h *yieldRecorder) Block(YieldPoint)   {}
func (h *yieldRecorder) Unblock(YieldPoint) {}
func (h *yieldRecorder) FailCAS(p YieldPoint) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.failOnce[p] > 0 {
		h.failOnce[p]--
		return true
	}
	return false
}
func (h *yieldRecorder) DelayGrant() bool { return false }
func (h *yieldRecorder) Event(Event)      {}

func (h *yieldRecorder) sawYield(p YieldPoint) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, q := range h.yields {
		if q == p {
			return true
		}
	}
	return false
}

// A sole reader upgrading its own read lock takes the step-3 owned path
// of lockFor straight into the fast CAS — it must never enter
// slowAcquire — and the upgrade must not duplicate the lock-log entry.
func TestSoleReaderUpgradeStaysOnFastPath(t *testing.T) {
	h := &yieldRecorder{}
	rt := NewRuntimeOpts(Options{Hooks: h, ProfileSampleRate: 1})
	c := NewClass("PromoSole", FieldSpec{Name: "v", Kind: KindWord})
	o := NewCommitted(c)
	v := c.Field("v")

	tx := rt.Begin()
	got := tx.ReadWord(o, v)
	tx.WriteWord(o, v, got+1) // upgrade of our own read lock
	if n := len(tx.lockLog); n != 1 {
		t.Fatalf("lock log has %d entries after read+upgrade of one lock, want 1", n)
	}
	tx.Commit()

	if h.sawYield(PointSlowEnter) {
		t.Fatalf("sole-reader upgrade entered slowAcquire; yields: %v", h.yields)
	}
	snap := rt.Stats().Snapshot()
	if snap.Contended != 0 {
		t.Fatalf("sole-reader upgrade counted as contended: %+v", snap)
	}
	if CommittedWord(o, v) != 1 {
		t.Fatalf("counter = %d, want 1", CommittedWord(o, v))
	}
}

// A boosted promotion hint must decay back to read acquisition after a
// read-only phase: each commit that promoted without writing pays the
// penalty, and once the score reaches zero reads stay reads.
func TestPromotionHintDecay(t *testing.T) {
	rt := exactProfileRuntime()
	c := NewClass("PromoDecay", FieldSpec{Name: "v", Kind: KindWord})
	o := NewCommitted(c)
	v := c.Field("v")
	site := c.fields[v].siteID

	// One duel loss's worth of boost: score 8. Two read-only commits at
	// -4 each drain it.
	rt.noteSite(site, siteDuelLoss)
	if siteMode(rt, site) != ModePromoted {
		t.Fatal("site not promoting after a boost")
	}

	for i := 0; i < 2; i++ {
		tx := rt.Begin()
		_ = tx.ReadWord(o, v)
		tx.Commit()
	}
	snap := rt.Stats().Snapshot()
	if snap.Promotions != 2 || snap.PromoWasted != 2 {
		t.Fatalf("promotions=%d wasted=%d after 2 read-only commits, want 2/2", snap.Promotions, snap.PromoWasted)
	}
	if siteMode(rt, site) == ModePromoted {
		t.Fatal("hint did not decay to zero after the read-only phase")
	}

	// With the hint drained, a read stays a read.
	tx := rt.Begin()
	_ = tx.ReadWord(o, v)
	tx.Commit()
	if got := rt.Stats().Snapshot().Promotions; got != 2 {
		t.Fatalf("promotions=%d after decay, want 2 (read was promoted again)", got)
	}

	var row *SiteProfile
	rows := rt.Profile().Snapshot()
	for i := range rows {
		if rows[i].Site.Class == "PromoDecay" {
			row = &rows[i]
		}
	}
	if row == nil || row.Promotions != 2 {
		t.Fatalf("per-site promotions not recorded: %+v", row)
	}
}

// A written promotion must reward the hint instead of decaying it: the
// score stays positive across many RMW commits.
func TestPromotionJustifiedByWrite(t *testing.T) {
	rt := exactProfileRuntime()
	c := NewClass("PromoRMW", FieldSpec{Name: "v", Kind: KindWord})
	o := NewCommitted(c)
	v := c.Field("v")
	site := c.fields[v].siteID

	rt.noteSite(site, siteDuelLoss)
	for i := 0; i < 8; i++ {
		tx := rt.Begin()
		val := tx.ReadWord(o, v) // promoted to a write acquisition
		tx.WriteWord(o, v, val+1)
		tx.Commit()
	}
	snap := rt.Stats().Snapshot()
	if snap.Promotions != 8 {
		t.Fatalf("promotions=%d, want 8", snap.Promotions)
	}
	if snap.PromoWasted != 0 {
		t.Fatalf("wasted=%d, want 0 (every promotion was written through)", snap.PromoWasted)
	}
	if siteMode(rt, site) != ModePromoted {
		t.Fatal("justified promotions decayed the hint")
	}
	if CommittedWord(o, v) != 8 {
		t.Fatalf("counter = %d, want 8", CommittedWord(o, v))
	}
}

// The queue-bypass recheck CAS in slowAcquire must charge chargeCASFail
// on failure exactly like the fast-path CAS: force both to fail once on
// an uncontended lock and pin the count at two, in Stats and in the
// per-site profile.
func TestRecheckCASFailCharged(t *testing.T) {
	h := &yieldRecorder{failOnce: map[YieldPoint]int{
		PointFastCAS:    1,
		PointRecheckCAS: 1,
	}}
	rt := NewRuntimeOpts(Options{Hooks: h, ProfileSampleRate: 1})
	c := NewClass("PromoRecheck", FieldSpec{Name: "v", Kind: KindWord})
	o := NewCommitted(c)
	v := c.Field("v")

	tx := rt.Begin()
	tx.WriteWord(o, v, 7) // fast CAS fails, first recheck CAS fails, second succeeds
	tx.Commit()

	snap := rt.Stats().Snapshot()
	if snap.CASFail != 2 {
		t.Fatalf("Stats.CASFail = %d, want 2 (fast + recheck)", snap.CASFail)
	}
	var fails uint64
	for _, r := range rt.Profile().Snapshot() {
		if r.Site.Class == "PromoRecheck" {
			fails = r.CASFails
		}
	}
	if fails != 2 {
		t.Fatalf("site CASFails = %d, want 2 (recheck failure not charged)", fails)
	}
}
