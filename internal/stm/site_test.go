package stm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"unsafe"
)

// siteMode is the mode a fresh word read of the site would be served in.
func siteMode(rt *Runtime, site int32) Mode { return rt.sites.policyAt(site).mode(true) }

// pol builds a policy word the way next leaves one.
func pol(promo, bias, invis int32) policy {
	p := policy(promo) | policy(bias)<<8 | policy(uint16(invis))<<16
	if invis >= invisOn {
		p |= polOn
	}
	return p
}

func (p policy) String() string {
	return fmt.Sprintf("{promo %d bias %d invis %d on %t}",
		p.promo(), p.bias(), p.invis(), p&polOn != 0)
}

func TestSiteCellLayout(t *testing.T) {
	var c siteCell
	if off := unsafe.Offsetof(c.n); off != 64 {
		t.Errorf("counters start at offset %d, want 64: they share the policy word's line", off)
	}
	if sz := unsafe.Sizeof(c); sz%64 != 0 {
		t.Errorf("cell is %d bytes, not a whole number of cache lines", sz)
	}
}

// TestNextTransitions pins every event at the boundary states of the
// score it moves: the floor, one below a threshold, the threshold, the cap.
func TestNextTransitions(t *testing.T) {
	const floor = invisCrushFloor
	cases := []struct {
		name string
		from policy
		ev   siteEvent
		want policy
	}{
		{"read/zero", 0, siteRead, pol(0, 8, 0)},
		{"read/bias-on-1", pol(0, biasOn-1, 0), siteRead, pol(0, biasOn+7, 0)},
		{"read/cap", pol(0, biasCap, 0), siteRead, pol(0, biasCap, 0)},
		{"read/near-cap", pol(0, biasCap-1, 0), siteRead, pol(0, biasCap, 0)},
		{"read/leaves-invis", pol(0, 0, 16), siteRead, pol(0, 8, 16)},
		{"readword/zero", 0, siteReadWord, pol(0, 8, 8)},
		{"readword/on-1", pol(0, 0, invisOn-1), siteReadWord, pol(0, 8, invisOn+7)},
		{"readword/crosses-on", pol(0, 16, invisOn-8), siteReadWord, pol(0, 24, invisOn)},
		{"readword/cap", pol(0, biasCap, invisCap), siteReadWord, pol(0, biasCap, invisCap)},
		{"readword/floor", pol(3, 0, floor), siteReadWord, pol(3, 8, floor+8)},
		{"write/zero", 0, siteWrite, 0},
		{"write/bias-on", pol(0, biasOn, 40), siteWrite, pol(0, 0, 40)},
		{"write/bias-cap", pol(0, biasCap, 0), siteWrite, pol(0, biasCap-32, 0)},
		{"write/clamps", pol(0, 31, 0), siteWrite, 0},
		{"writeword/zero", 0, siteWriteWord, pol(0, 0, -48)},
		{"writeword/on", pol(0, 40, invisOn), siteWriteWord, pol(0, 8, invisOn-48)},
		{"writeword/cap", pol(0, 0, invisCap), siteWriteWord, pol(0, 0, invisCap-48)},
		{"writeword/near-floor", pol(0, 0, floor+1), siteWriteWord, pol(0, 0, floor)},
		{"writeword/floor", pol(0, 0, floor), siteWriteWord, pol(0, 0, floor)},
		{"grant/on", pol(0, biasOn, 0), siteBiasGrant, pol(0, biasOn+8, 0)},
		{"grant/cap", pol(0, biasCap, 0), siteBiasGrant, pol(0, biasCap, 0)},
		{"duel/zero", 0, siteDuelLoss, pol(8, 0, floor)},
		{"duel/below-shield", pol(0, biasShield-1, invisCap), siteDuelLoss, pol(8, 0, floor)},
		{"duel/at-shield", pol(0, biasShield, 40), siteDuelLoss, pol(0, biasShield-8, 40)},
		{"duel/bias-cap", pol(4, biasCap, floor), siteDuelLoss, pol(4, biasCap-8, floor)},
		{"duel/promo-cap", pol(promoCap, 0, floor), siteDuelLoss, pol(promoCap, 0, floor)},
		{"duel/promo-near-cap", pol(promoCap-1, 0, 0), siteDuelLoss, pol(promoCap, 0, floor)},
		{"written/zero", 0, sitePromoWritten, pol(1, 0, 0)},
		{"written/cap", pol(promoCap, 0, 0), sitePromoWritten, pol(promoCap, 0, 0)},
		{"wasted/zero", 0, sitePromoWasted, 0},
		{"wasted/boost", pol(8, 0, floor), sitePromoWasted, pol(4, 0, floor)},
		{"wasted/clamps", pol(3, 0, 0), sitePromoWasted, 0},
		{"emptyrevoke/zero", 0, siteEmptyRevoke, 0},
		{"emptyrevoke/on", pol(0, biasOn, 0), siteEmptyRevoke, pol(0, biasOn-16, 0)},
		{"emptyrevoke/clamps", pol(0, 15, 0), siteEmptyRevoke, pol(0, 0, 0)},
		{"valabort/zero", 0, siteValidationAbort, pol(0, 0, floor)},
		{"valabort/cap", pol(0, 64, invisCap), siteValidationAbort, pol(0, 64, floor)},
		{"valabort/floor", pol(0, 0, floor), siteValidationAbort, pol(0, 0, floor)},
		{"seedbias/zero", 0, siteSeedBias, pol(0, biasCap, 0)},
		{"seedinvis/zero", 0, siteSeedInvisible, pol(0, 0, invisCap)},
		{"seedinvis/floor", pol(8, 0, floor), siteSeedInvisible, pol(8, 0, invisCap)},
	}
	seen := map[siteEvent]bool{}
	for _, tc := range cases {
		seen[tc.ev] = true
		if got := next(tc.from, tc.ev); got != tc.want {
			t.Errorf("%s: next(%v) = %v, want %v", tc.name, tc.from, got, tc.want)
		}
	}
	for ev := siteEvent(0); ev < numSiteEvents; ev++ {
		if !seen[ev] {
			t.Errorf("event %d has no case", ev)
		}
	}
}

// A seeded site decodes to the seeded mode, and the decode precedence is
// invisible, promoted, biased, visible.
func TestPolicyMode(t *testing.T) {
	if m := next(0, siteSeedBias).mode(true); m != ModeBiased {
		t.Errorf("seed-bias decodes to %v", m)
	}
	if m := next(0, siteSeedInvisible).mode(true); m != ModeInvisible {
		t.Errorf("seed-invisible decodes to %v", m)
	}
	if m := next(0, siteSeedInvisible).mode(false); m != ModeVisible {
		t.Errorf("seed-invisible on a non-word slot decodes to %v", m)
	}
	if m := next(0, siteDuelLoss).mode(true); m != ModePromoted {
		t.Errorf("a duel loss decodes to %v", m)
	}
	all := pol(1, biasCap, invisCap)
	if m := all.mode(true); m != ModeInvisible {
		t.Errorf("everything on decodes to %v, want invisible first", m)
	}
	if m := all.mode(false); m != ModePromoted {
		t.Errorf("everything on, invisible excluded, decodes to %v, want promoted", m)
	}
	if m := pol(0, biasOn-1, invisOn-1).mode(true); m != ModeVisible {
		t.Errorf("one below both thresholds decodes to %v", m)
	}
}

// TestNextInvariants walks every event from every reachable state: all
// fields stay in range and the on bit always agrees with the score.
func TestNextInvariants(t *testing.T) {
	seen := map[policy]bool{0: true}
	work := []policy{0}
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		for ev := siteEvent(0); ev < numSiteEvents; ev++ {
			np := next(p, ev)
			checkPolicy(t, np)
			if (p^np)&polOn != 0 && (p.invis() >= invisOn) == (np.invis() >= invisOn) {
				t.Fatalf("event %d moved on without crossing invisOn: %v -> %v", ev, p, np)
			}
			if !seen[np] {
				seen[np] = true
				work = append(work, np)
			}
		}
	}
	t.Logf("%d reachable policy words", len(seen))
}

func checkPolicy(t *testing.T, p policy) {
	t.Helper()
	if p.promo() < 0 || p.promo() > promoCap || p.bias() < 0 || p.bias() > biasCap ||
		p.invis() < invisCrushFloor || p.invis() > invisCap {
		t.Fatalf("score out of range: %v", p)
	}
	if (p&polOn != 0) != (p.invis() >= invisOn) {
		t.Fatalf("on bit disagrees with the score: %v", p)
	}
	if p != pol(p.promo(), p.bias(), p.invis()) {
		t.Fatalf("stray bits in %#x", uint64(p))
	}
}

// TestNoteSiteConcurrent applies random events to one cell from eight
// goroutines. Every word that comes back must be well-formed; the
// transitions must chain — every word is left exactly as often as it is
// entered, bar the first and the last — which is what one CAS per event
// means; and because the on bit moves in that same CAS, ModeFlips must
// equal the number of transitions that changed it.
func TestNoteSiteConcurrent(t *testing.T) {
	rt := NewRuntime()
	c := NewClass("SiteRace", FieldSpec{Name: "v", Kind: KindWord})
	site := c.fields[c.Field("v")].siteID
	const goroutines, steps = 8, 5000

	type step struct{ old, now policy }
	moves := make([][]step, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < steps; i++ {
				old, now := rt.noteSite(site, siteEvent(rng.Intn(int(numSiteEvents))))
				if old != now {
					moves[g] = append(moves[g], step{old, now})
				}
			}
		}(g)
	}
	wg.Wait()

	var flips uint64
	balance := map[policy]int{0: 1} // entered minus left; the cell starts at 0
	for _, ms := range moves {
		for _, m := range ms {
			checkPolicy(t, m.now)
			balance[m.now]++
			balance[m.old]--
			if (m.old^m.now)&polOn != 0 {
				flips++
			}
		}
	}
	final := rt.sites.policyAt(site)
	balance[final]--
	for p, n := range balance {
		if n != 0 {
			t.Errorf("word %v entered %+d times more than left: transitions do not chain", p, n)
		}
	}
	if got := rt.Stats().Snapshot().ModeFlips; got != flips {
		t.Errorf("ModeFlips = %d, observed %d on-bit changes", got, flips)
	}
	if flips == 0 {
		t.Error("no on-bit change in the whole run; the test exercised nothing")
	}
}

// The Seed functions resolve an array class to its one element site
// without indexing its (empty) field table: a seeded array reads its
// elements invisibly, or through the bias, like a seeded field.
func TestSeedArraySite(t *testing.T) {
	rt := NewRuntime()
	words := NewCommittedArray(KindWord, 2)
	rt.SeedInvisible(words.Class(), 0)
	prime := rt.Begin()
	prime.ReadElem(words, 1) // installs the version array, stays visible
	prime.Commit()
	tx := rt.Begin()
	tx.ReadElem(words, 1)
	if n := tx.n.InvisReads; n != 1 {
		t.Errorf("seeded array element read invisibly %d times, want 1", n)
	}
	tx.Commit()

	refs := NewCommittedArray(KindRef, 1)
	rt.SeedReadBias(refs.Class(), 0)
	tx = rt.Begin()
	tx.ReadElemRef(refs, 0)
	if n := tx.n.BiasGrants; n != 1 {
		t.Errorf("seeded array element read through the bias %d times, want 1", n)
	}
	tx.Commit()
}
