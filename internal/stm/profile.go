package stm

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Per-lock-site contention profiling. A lock site is the static identity
// of a lock: one per non-final field of each class, plus one per array
// class (array elements share a site — the element index is dynamic, the
// class is the site). Sites are what the paper's evaluation reasons
// about when a workload collapses: "the hot lock is the size field of
// the queue class", not "lock word 0xc000123".
//
// A per-site event is charged to its site's cell with one atomic add
// where it happens (siteCell.n). None is on the uncontended path:
// each is slow-path, sampled 1-in-ProfilePeriod (acquires, bias
// grants, invisible reads, block time), or a promotion, charged once
// per promoted acquire. The check paths never touch the profiler.

// ProfilePeriod is the sampling period of the per-site acquire, bias
// grant, invisible read and block time counters: one such event in
// every 64 is charged to its site, scaled back up to the period, which
// keeps the always-on cost of the profiler to one add-and-branch per
// acquire (and two clock reads per sampled block, not per block). The
// sampled acquires, bias grants and reads are also the policy word's
// read/write evidence (site.go). The other contention counters are
// always exact.
const ProfilePeriod = 64

// profMask selects the sampled events: the n-th such event of a
// section with start ticket t is sampled when (n+t)&profMask == 0. The
// ticket offsets the phase per section, so short sections contribute
// in aggregate even though any single one usually skips.
const profMask = ProfilePeriod - 1

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

// SiteCounters is the declaration of the per-site counters, the way
// StatsSnapshot is for the runtime-wide ones: one 8-byte field per
// counter, and the cell (siteCell.n), Profile.Snapshot/Reset and the
// exposition in internal/obs all index this list. prom and help are the
// /metrics series (one sample per site), col is the /profile column.
//
// Acquires, BiasGrants, InvisReads and BlockTime are sampled estimates
// scaled by ProfilePeriod; the rest are exact.
type SiteCounters struct {
	Acquires    uint64        `prom:"sbd_site_acquires_total" help:"Lock acquisitions per site." col:"Acq"`
	Contended   uint64        `prom:"sbd_site_contended_total" help:"Contended acquisitions per site." col:"Cont"`
	CASFails    uint64        `prom:"sbd_site_cas_failures_total" help:"Failed lock-word CAS attempts per site." col:"CASFail"`
	Upgrades    uint64        `prom:"sbd_site_upgrades_total" help:"Enqueued read-to-write upgrades per site." col:"Upgr"`
	Promotions  uint64        `prom:"sbd_site_promotions_total" help:"Adaptive write-intent promotions per site." col:"Promo"`
	DuelLosses  uint64        `prom:"sbd_site_duel_losses_total" help:"Hint-boosting upgrade aborts per site." col:"DuelLoss"`
	Deadlocks   uint64        `prom:"sbd_site_deadlocks_total" help:"Acquire-path abort involvements per site." col:"Dead"`
	BiasGrants  uint64        `prom:"sbd_site_bias_grants_total" help:"Biased reader-slot grants per site." col:"Bias"`
	BiasRevokes uint64        `prom:"sbd_site_bias_revokes_total" help:"Read-bias revocations per site." col:"Revoke"`
	InvisReads  uint64        `prom:"sbd_site_invis_reads_total" help:"Invisible optimistic reads per site." col:"Invis"`
	ValAborts   uint64        `prom:"sbd_site_validation_aborts_total" help:"Commit-time validation failures per site." col:"VAbr"`
	BlockTime   time.Duration `prom:"sbd_site_block_seconds_total" help:"Cumulative time blocked per site." col:"Block" unit:"ns"`
}

const numSiteCounters = int(unsafe.Sizeof(SiteCounters{}) / 8)

func (c *SiteCounters) words() *[numSiteCounters]uint64 {
	return (*[numSiteCounters]uint64)(unsafe.Pointer(c))
}

// chargeAcquire scales one sampled acquire back up to the sampling
// period and charges it to the site. Kept out of line so the cell
// lookup does not bloat lockFor, whose code size the uncontended fast
// path pays for on every access.
//
//go:noinline
func (tx *Tx) chargeAcquire(site int32) {
	atomic.AddUint64(&tx.rt.sites.at(site).n.Acquires, profMask+1)
}

// chargeCASFail records a failed fast-path lock CAS, out of line for
// the same reason as chargeAcquire.
//
//go:noinline
func (tx *Tx) chargeCASFail(site int32) {
	tx.n.CASFail++
	atomic.AddUint64(&tx.rt.sites.at(site).n.CASFails, 1)
}

// chargeBlock charges one sampled park that began at start, scaled back
// up to the sampling period.
func (rt *Runtime) chargeBlock(site int32, start time.Time) {
	atomic.AddInt64((*int64)(&rt.sites.at(site).n.BlockTime), int64(time.Since(start))*(profMask+1))
}

// Profile is the exported read-only view of a runtime's site table
// (site.go): the per-site contention counters, plus the mode each site's
// policy word currently selects.
type Profile siteTable

// SiteProfile is one row of a profile snapshot.
type SiteProfile struct {
	Site SiteInfo
	Mode Mode // read mode the site's policy word selects now
	SiteCounters
}

// Snapshot returns every site with at least one recorded event, hottest
// first: descending block time, then contended acquires, then total
// acquires — the order the "which lock melted" question wants.
func (p *Profile) Snapshot() []SiteProfile {
	s := (*siteTable)(p).load()
	out := make([]SiteProfile, 0, len(s))
	for id, c := range s {
		row := SiteProfile{Site: siteInfo(int32(id)), Mode: policy(c.policy.Load()).mode(true)}
		var seen uint64
		for j := range c.n.words() {
			v := atomic.LoadUint64(&c.n.words()[j])
			row.words()[j] = v
			seen |= v
		}
		if seen != 0 {
			out = append(out, row)
		}
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
		for j := range c.n.words() {
			atomic.StoreUint64(&c.n.words()[j], 0)
		}
	}
}
