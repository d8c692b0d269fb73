package stm

import (
	"sync"
	"sync/atomic"
)

// The site policy word. Every lock site (profile.go) has one cell in the
// runtime's site table, and the cell's policy word is everything the
// adaptive tiers know about the site: the write-promotion score
// (promo.go), the read-bias score and its ever-installed latch (bias.go),
// and the invisible-read score with its on bit (readset.go). A fresh
// read loads the word once and mode decodes which of the four read modes
// serves it; every score movement is one event applied by next under one
// CAS (Runtime.noteSite), so the rules that keep the tiers from fighting
// each other are stated once, here, not in the order callers edit tables.
//
//	bits  0..7   promotion score  0..promoCap
//	bits  8..15  bias score       0..biasCap
//	bits 16..31  invisible score  invisCrushFloor..invisCap (int16)
//	bit  32      polEver: the bias marker was installed here at least once
//	bit  33      polOn:   invisible score >= invisOn (kept by next)
//
// The zero word is a site nothing is known about: all scores 0, visible.
type policy uint64

const (
	polEver policy = 1 << 32
	polOn   policy = 1 << 33
)

// Promotion-hint scoring. A duel loss is strong evidence the site is an
// RMW hot spot (+promoBoost); a committed transaction that wrote through
// a promoted lock confirms the hint (+promoReward); one that promoted
// but never wrote paid read-sharing for nothing (promoPenalty, heavier
// than the reward so a read-mostly phase drains the score in a couple of
// commits). The score saturates at promoCap and floors at zero; a site
// promotes while its score is positive.
const (
	promoCap     = 128
	promoBoost   = 8
	promoReward  = 1
	promoPenalty = -4
)

// Read-bias scoring.
const (
	biasCap = 128 // score saturation
	biasOn  = 32  // readers use the bias path while score >= biasOn
	// biasShield: at or above this score, duel losses decay the bias
	// score instead of crushing it and boosting write-promotion. A
	// strongly read-biased site sees occasional writer-vs-writer duels
	// even when reads dominate; without the shield one such duel would
	// flip the site to write-promotion and serialize all its readers.
	biasShield = 96

	biasReadBoost      = 8  // sampled read acquisition or biased grant
	biasWritePen       = 32 // sampled write acquisition
	biasDuelPen        = 8  // duel loss at or above biasShield
	biasEmptyRevokePen = 16 // revocation that found no live reader slots
)

// Invisible-read scoring. invisOn is deliberately below biasOn with the
// same sampled boost, so a purely read-hot word site flips invisible
// before the bias layer would claim it. A site with any write traffic
// takes the write penalty before reaching invisOn and settles in bias or
// visible mode instead: written-rarely is a requirement, not a
// preference — every write risks a validation abort for every concurrent
// invisible reader.
const (
	invisCap = 128 // score saturation
	invisOn  = 24  // readers go invisible while score >= invisOn
	// invisCrushFloor is the score a validation abort (or duel loss)
	// sets: recovery to invisOn takes (invisOn-invisCrushFloor)/invisReadBoost
	// sampled reads with no intervening write, so a site that keeps
	// aborting its readers oscillates slowly, not per-transaction.
	invisCrushFloor = -invisCap

	invisReadBoost = 8  // sampled read acquisition
	invisWritePen  = 48 // sampled write acquisition
)

func (p policy) promo() int32 { return int32(p & 0xff) }
func (p policy) bias() int32  { return int32(p >> 8 & 0xff) }
func (p policy) invis() int32 { return int32(int16(p >> 16)) }

// overtakes reports whether acquirers at the site may CAS past an
// installed queue (bounded overtaking, promo.go): only while the
// promotion hint is active, and never at a site that has ever been
// read-biased — overtaking CASes past the word's queue field, which at
// such a site may hold the bias marker or a queue pinned by draining
// reader slots, states a write must never CAS through (bias.go).
func (p policy) overtakes() bool { return p.promo() > 0 && p&polEver == 0 }

// Mode is the access mode a site's policy word selects for a fresh read.
type Mode uint8

const (
	ModeVisible   Mode = iota // holder bit in the lock word (the paper's reader)
	ModePromoted              // acquired in write mode up front (promo.go)
	ModeBiased                // published through a reader slot (bias.go)
	ModeInvisible             // nothing published, validated at commit (readset.go)
)

func (m Mode) String() string {
	return [...]string{"visible", "promoted", "biased", "invisible"}[m]
}

// mode decodes the policy word. Precedence: invisible first — a read
// that succeeds there never leases a slot — then promoted, then biased.
// invisOK is false where invisible reads cannot apply (reference and
// string slots, or after an invisible attempt fell back), which yields
// the mode of the pessimistic paths alone.
func (p policy) mode(invisOK bool) Mode {
	switch {
	case invisOK && p&polOn != 0:
		return ModeInvisible
	case p.promo() > 0:
		return ModePromoted
	case p.bias() >= biasOn:
		return ModeBiased
	}
	return ModeVisible
}

// siteEvent is one piece of evidence about a site; next says what each
// does to the policy word.
type siteEvent uint8

const (
	// Sampled lock-word acquisitions (1 in ProfileSampleRate). Only word
	// slots can ever read invisibly (readset.go), so only the Word
	// variants train the invisible score.
	siteRead siteEvent = iota
	siteReadWord
	siteWrite
	siteWriteWord
	siteBiasGrant       // sampled read served by a bias slot
	siteDuelLoss        // upgrade duel (or enqueued-upgrader abort) lost here
	sitePromoWritten    // a promoted read was written before commit
	sitePromoWasted     // a promoted read committed unwritten
	siteEmptyRevoke     // a bias revocation found no live reader slots
	siteValidationAbort // an invisible read here failed validation
	siteMarkerInstall   // a reader is about to install the bias marker
	siteSeedBias        // SeedReadBias
	siteSeedInvisible   // SeedInvisible
	numSiteEvents
)

// next is the transition function of the policy word: pure, total, and
// the only place scores move.
func next(p policy, ev siteEvent) policy {
	promo, bias, invis := p.promo(), p.bias(), p.invis()
	ever := p & polEver
	switch ev {
	case siteReadWord:
		invis += invisReadBoost
		fallthrough
	case siteRead, siteBiasGrant:
		bias += biasReadBoost
	case siteWriteWord:
		invis -= invisWritePen
		fallthrough
	case siteWrite:
		bias -= biasWritePen
	case siteDuelLoss:
		if bias >= biasShield {
			// Strongly read-biased site: the occasional writer-vs-writer
			// duel is expected noise there. Decay the bias instead;
			// sustained duels still wear it down past the shield, after
			// which promotion takes over as usual.
			bias -= biasDuelPen
			break
		}
		// A site is read-hot or RMW-hot, never both: promoting crushes
		// any residual read-bias score — and the invisible score, since
		// an RMW-hot site would turn every optimistic read into a
		// near-certain validation abort.
		promo += promoBoost
		bias, invis = 0, invisCrushFloor
	case sitePromoWritten:
		promo += promoReward
	case sitePromoWasted:
		promo += promoPenalty
	case siteEmptyRevoke:
		bias -= biasEmptyRevokePen
	case siteValidationAbort:
		// The optimism just cost a rollback: readers fall back to
		// bias/visible mode until a long run of conflict-free sampled
		// reads re-earns it.
		invis = invisCrushFloor
	case siteMarkerInstall:
		ever = polEver
	case siteSeedBias:
		bias, ever = biasCap, polEver
	case siteSeedInvisible:
		invis = invisCap
	}
	promo = min(max(promo, 0), promoCap)
	bias = min(max(bias, 0), biasCap)
	invis = min(max(invis, invisCrushFloor), invisCap)
	np := policy(promo) | policy(bias)<<8 | policy(uint16(invis))<<16 | ever
	if invis >= invisOn {
		np |= polOn
	}
	return np
}

// siteCell is one site's entry in the site table. The policy word has a
// cache line to itself: it is loaded by every fresh read of the site and
// stored rarely (a saturated score costs no store at all), while the
// counters behind it take an atomic add at each per-site event (a
// slow-path one, a sampled one, or a promotion) — sharing a line would
// make each add invalidate the word every reader is about to load. The
// trailing pad keeps a cell a whole number of lines, so neighbouring
// cells of one chunk do not share either.
type siteCell struct {
	policy atomic.Uint64
	_      [56]byte
	n      SiteCounters // atomic access only
	_      [32]byte
}

// siteTable is the per-runtime table of site cells, indexed by global
// site ID: a copy-on-write slice grown under a mutex the first time a
// site beyond its end is touched, so a lookup is one atomic pointer
// load, one bounds check and one index — and a runtime that never
// touched a site keeps the pointer nil and pays only the load.
type siteTable struct {
	mu    sync.Mutex
	cells atomic.Pointer[[]*siteCell]
}

func (t *siteTable) load() []*siteCell {
	if p := t.cells.Load(); p != nil {
		return *p
	}
	return nil
}

// policyAt returns the policy word of a site; zero for a site the table
// has not grown to yet.
func (t *siteTable) policyAt(site int32) policy {
	if s := t.load(); int(site) < len(s) {
		return policy(s[site].policy.Load())
	}
	return 0
}

// at returns the cell of a site, growing the table when needed.
func (t *siteTable) at(site int32) *siteCell {
	if s := t.load(); int(site) < len(s) {
		return s[site]
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.load()
	if int(site) < len(cur) {
		return cur[site]
	}
	grown := make([]*siteCell, siteCount())
	copy(grown, cur)
	fresh := make([]siteCell, len(grown)-len(cur)) // one chunk, line-aligned cells
	for i := range fresh {
		grown[len(cur)+i] = &fresh[i]
	}
	t.cells.Store(&grown)
	return grown[site]
}

// noteSite applies one event to a site's policy word and returns the
// transition it made. One that changes nothing stores nothing, so a
// saturated site costs no write sharing. The invisible on bit moves in
// the same CAS as the score, which makes Stats.ModeFlips exact: it
// counts the CASes that changed the bit.
//
//go:noinline
func (rt *Runtime) noteSite(site int32, ev siteEvent) (old, now policy) {
	c := rt.sites.at(site)
	for {
		old = policy(c.policy.Load())
		now = next(old, ev)
		if now == old || c.policy.CompareAndSwap(uint64(old), uint64(now)) {
			if (old^now)&polOn != 0 {
				atomic.AddUint64(&rt.stats.c.ModeFlips, 1)
			}
			return old, now
		}
	}
}

// seedSite resolves the lock site behind (class, field) for the Seed
// functions.
func seedSite(c *Class, f FieldID, who string) int32 {
	site := c.fields[f].siteID
	if c.isArray {
		site = c.siteID
	}
	if site < 0 {
		panic("stm: " + who + " on a final field")
	}
	return site
}

// SeedReadBias pre-loads the read-bias score of the lock site behind
// (class, field) to saturation, as if readers had trained it. Tests and
// schedule-exploration scenarios use it to reach the biased state
// deterministically instead of replaying the sampled learning phase.
func (rt *Runtime) SeedReadBias(c *Class, f FieldID) {
	rt.noteSite(seedSite(c, f, "SeedReadBias"), siteSeedBias)
	rt.bias.everAny.Store(true)
}

// SeedInvisible pre-loads the invisible-read score of the lock site
// behind (class, field) to saturation, as if a long run of
// conflict-free readers had trained it. The first read of each object
// still installs the version array and stays visible; from the second
// read on the site reads invisibly.
func (rt *Runtime) SeedInvisible(c *Class, f FieldID) {
	rt.noteSite(seedSite(c, f, "SeedInvisible"), siteSeedInvisible)
}
