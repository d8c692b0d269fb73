package stm

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Per-lock-site contention profiling. A lock site is the static identity
// of a lock: one per non-final field of each class, plus one per array
// class (array elements share a site — the element index is dynamic, the
// class is the site). Sites are what the paper's evaluation reasons
// about when a workload collapses: "the hot lock is the size field of
// the queue class", not "lock word 0xc000123".
//
// The profiler follows the same zero-shared-atomics discipline as the
// nAcq counters in Tx: every acquire updates a small per-transaction
// delta buffer (no sharing, no atomics), and Commit/Reset flush the
// buffer into the runtime's per-site atomic counters. The uncontended
// check paths (new instance, already owned, final, thread-local) never
// touch the profiler at all.

// DefaultProfileSampleRate is the default sampling period of the
// per-site acquire counter (Options.ProfileSampleRate): the fast path
// charges one in every 64 acquires to its site and the flush scales the
// sample back up, keeping the always-on cost of the profiler to one
// add-and-branch per acquire. Per-site block time shares the same
// period (two clock reads per block dominate the slow path under heavy
// contention otherwise); the other contention counters are always exact.
const DefaultProfileSampleRate = 64

// SiteInfo is the static identity of one lock site.
type SiteInfo struct {
	Class string // class name (array class name for arrays)
	Field string // field name; empty for array sites
	Array bool
}

// String renders the site the way the contention table prints it.
func (s SiteInfo) String() string {
	if s.Array {
		return s.Class + "[*]"
	}
	return s.Class + "." + s.Field
}

// siteReg is the process-global site registry. Classes are process-global
// static metadata, so their sites are too; per-runtime counter storage is
// indexed by these IDs.
var siteReg struct {
	mu    sync.RWMutex
	sites []SiteInfo
}

// registerSite appends a site and returns its dense ID.
func registerSite(info SiteInfo) int32 {
	siteReg.mu.Lock()
	defer siteReg.mu.Unlock()
	siteReg.sites = append(siteReg.sites, info)
	return int32(len(siteReg.sites) - 1)
}

// siteCount returns the number of registered sites.
func siteCount() int {
	siteReg.mu.RLock()
	defer siteReg.mu.RUnlock()
	return len(siteReg.sites)
}

// siteInfo returns the registered identity of a site ID.
func siteInfo(id int32) SiteInfo {
	siteReg.mu.RLock()
	defer siteReg.mu.RUnlock()
	return siteReg.sites[id]
}

// siteCounters is the per-site aggregate of one runtime, the counter
// half of a siteCell. All fields are only written by flushProfile
// (atomic adds) and read by Snapshot.
type siteCounters struct {
	acquires    atomic.Uint64
	contended   atomic.Uint64
	casFails    atomic.Uint64
	upgrades    atomic.Uint64
	promotions  atomic.Uint64
	duelLosses  atomic.Uint64
	deadlocks   atomic.Uint64
	biasGrants  atomic.Uint64
	biasRevokes atomic.Uint64
	// invisReads and validationAborts may also be added to directly,
	// bypassing the delta buffers: a read-only invisible section never
	// leases a slot and so owns no buffer (readset.go).
	invisReads       atomic.Uint64
	validationAborts atomic.Uint64
	blockNs          atomic.Uint64
}

// siteDelta is the per-transaction buffered contribution to one site.
type siteDelta struct {
	site             int32
	acquires         uint32
	contended        uint32
	casFails         uint32
	upgrades         uint32
	promotions       uint32
	duelLosses       uint32
	deadlocks        uint32
	biasGrants       uint32
	biasRevokes      uint32
	invisReads       uint32
	validationAborts uint32
	blockNs          uint64
}

// profAt returns the transaction's delta buffer entry for a site,
// creating it on first touch. The newest-first linear search exploits
// locality: a transaction usually hammers the site it touched last.
//
// The buffer lives in Runtime.profBufs, indexed by the leased lock-word
// slot, not in Tx: the slot is exclusively owned by one section between
// lease and release (with the slot pool providing the happens-before
// edge on handoff), and the buffer's capacity survives across sections
// that reuse the slot. Every caller is on a lock path, so the slot lease
// is already in place (lockFor runs ensureSlot first).
func (tx *Tx) profAt(site int32) *siteDelta {
	buf := tx.rt.profBufs[tx.slot]
	for i := len(buf) - 1; i >= 0; i-- {
		if buf[i].site == site {
			return &buf[i]
		}
	}
	buf = append(buf, siteDelta{site: site})
	tx.rt.profBufs[tx.slot] = buf
	return &buf[len(buf)-1]
}

// chargeAcquire scales one sampled acquire back up to the sampling
// period and charges it to the site. Kept out of line so the inlined
// profAt body does not bloat lockFor, whose code size the uncontended
// fast path pays for on every access.
//
//go:noinline
func (tx *Tx) chargeAcquire(site int32) {
	tx.profAt(site).acquires += uint32(tx.rt.profMask) + 1
}

// chargeCASFail records a failed fast-path lock CAS, out of line for
// the same reason as chargeAcquire.
//
//go:noinline
func (tx *Tx) chargeCASFail(site int32) {
	tx.nCASFail++
	tx.profAt(site).casFails++
}

// flushProfile moves the per-transaction site deltas into the runtime
// profile. Zero fields are skipped so the common uncontended acquire
// costs one atomic add per touched site.
func (tx *Tx) flushProfile() {
	if tx.slot < 0 {
		return // never leased a slot: no lock was acquired, nothing buffered
	}
	buf := tx.rt.profBufs[tx.slot]
	if len(buf) == 0 {
		return
	}
	for i := range buf {
		d := &buf[i]
		c := tx.rt.sites.at(d.site)
		addNZ(&c.acquires, uint64(d.acquires))
		addNZ(&c.contended, uint64(d.contended))
		addNZ(&c.casFails, uint64(d.casFails))
		addNZ(&c.upgrades, uint64(d.upgrades))
		addNZ(&c.promotions, uint64(d.promotions))
		addNZ(&c.duelLosses, uint64(d.duelLosses))
		addNZ(&c.deadlocks, uint64(d.deadlocks))
		addNZ(&c.biasGrants, uint64(d.biasGrants))
		addNZ(&c.biasRevokes, uint64(d.biasRevokes))
		addNZ(&c.invisReads, uint64(d.invisReads))
		addNZ(&c.validationAborts, uint64(d.validationAborts))
		addNZ(&c.blockNs, d.blockNs)
	}
	tx.rt.profBufs[tx.slot] = buf[:0]
}

// addNZ adds n to a shared counter, skipping the atomic add when n is 0.
func addNZ(c *atomic.Uint64, n uint64) {
	if n != 0 {
		c.Add(n)
	}
}

// Profile is the exported read-only view of a runtime's site table
// (site.go): the per-site contention counters, plus the mode each site's
// policy word currently selects.
type Profile siteTable

// SiteProfile is one row of a profile snapshot.
type SiteProfile struct {
	Site        SiteInfo
	Mode        Mode          // read mode the site's policy word selects now
	Acquires    uint64        // lock acquire+release pairs (sampled estimate; see ProfileSampleRate)
	Contended   uint64        // acquires that had to enqueue
	CASFails    uint64        // failed lock-word CAS attempts
	Upgrades    uint64        // read-to-write upgrades that enqueued
	Promotions  uint64        // reads adaptively promoted to write acquisitions
	DuelLosses  uint64        // upgrade aborts feeding the promotion hint (exact)
	Deadlocks   uint64        // abort involvements while acquiring (deadlock victim, duel loss)
	BiasGrants  uint64        // reads served by the biased reader-slot path (sampled estimate)
	BiasRevokes uint64        // writer revocations of this site's read bias (exact)
	InvisReads  uint64        // reads served invisibly, no shared store (sampled estimate)
	ValAborts   uint64        // commit-time validation aborts charged to this site (exact)
	BlockTime   time.Duration // time spent parked (sampled estimate; see ProfileSampleRate)
}

// Snapshot returns every site with at least one recorded event, hottest
// first: descending block time, then contended acquires, then total
// acquires — the order the "which lock melted" question wants.
func (p *Profile) Snapshot() []SiteProfile {
	s := (*siteTable)(p).load()
	out := make([]SiteProfile, 0, len(s))
	for id, c := range s {
		row := SiteProfile{
			Site:        siteInfo(int32(id)),
			Mode:        policy(c.policy.Load()).mode(true),
			Acquires:    c.acquires.Load(),
			Contended:   c.contended.Load(),
			CASFails:    c.casFails.Load(),
			Upgrades:    c.upgrades.Load(),
			Promotions:  c.promotions.Load(),
			DuelLosses:  c.duelLosses.Load(),
			Deadlocks:   c.deadlocks.Load(),
			BiasGrants:  c.biasGrants.Load(),
			BiasRevokes: c.biasRevokes.Load(),
			InvisReads:  c.invisReads.Load(),
			ValAborts:   c.validationAborts.Load(),
			BlockTime:   time.Duration(c.blockNs.Load()),
		}
		if row.Acquires|row.Contended|row.CASFails|row.Upgrades|row.Promotions|row.DuelLosses|row.Deadlocks|row.BiasGrants|row.BiasRevokes|row.InvisReads|row.ValAborts == 0 && row.BlockTime == 0 {
			continue
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.BlockTime != b.BlockTime {
			return a.BlockTime > b.BlockTime
		}
		if a.Contended != b.Contended {
			return a.Contended > b.Contended
		}
		if a.Acquires != b.Acquires {
			return a.Acquires > b.Acquires
		}
		return a.Site.String() < b.Site.String()
	})
	return out
}

// Reset zeroes every per-site counter (the table stays allocated, and
// the policy words keep what the sites have learned).
func (p *Profile) Reset() {
	for _, c := range (*siteTable)(p).load() {
		c.acquires.Store(0)
		c.contended.Store(0)
		c.casFails.Store(0)
		c.upgrades.Store(0)
		c.promotions.Store(0)
		c.duelLosses.Store(0)
		c.deadlocks.Store(0)
		c.biasGrants.Store(0)
		c.biasRevokes.Store(0)
		c.invisReads.Store(0)
		c.validationAborts.Store(0)
		c.blockNs.Store(0)
	}
}
