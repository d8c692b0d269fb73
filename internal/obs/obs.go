// Package obs renders the STM's observability surfaces — the per-site
// contention profile, the runtime statistics, and the flight recorder —
// as human-readable tables and as Prometheus text exposition, and
// serves both live over internal/minihttp (plus a TCP bridge so a real
// curl or Prometheus scraper can reach a running benchmark).
//
// The package only reads: everything it exposes is a snapshot of
// counters the STM already maintains, so attaching it to a runtime
// costs nothing until someone actually asks.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/stm"
)

// StatsJSON renders a stats snapshot as indented JSON (exported field
// names as keys). It is the machine-readable sibling of Metrics: a
// scraper diffs two snapshots instead of parsing Prometheus text.
func StatsJSON(snap stm.StatsSnapshot) string {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return "{}\n" // StatsSnapshot is all integers; cannot happen
	}
	return string(data) + "\n"
}

// FormatRate renders an abort-rate-style ratio for tables. Infinite
// rates (aborts with zero commits — total livelock) render as "inf",
// never as a fake number.
func FormatRate(v float64) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return "inf"
	}
	return fmt.Sprintf("%.2f", v)
}

// ProfileTable renders the per-site contention profile as an aligned
// text table, hottest site first (the stm.Profile snapshot order).
func ProfileTable(rows []stm.SiteProfile) string {
	if len(rows) == 0 {
		return "no lock-site activity recorded\n"
	}
	tbl := harness.NewTable("Site", "Mode", "Acq", "Cont", "CASFail", "Upgr", "Promo", "DuelLoss", "Dead", "Bias", "Revoke", "Invis", "VAbr", "Block")
	for _, r := range rows {
		tbl.Row(r.Site.String(), r.Mode.String(), r.Acquires, r.Contended, r.CASFails,
			r.Upgrades, r.Promotions, r.DuelLosses, r.Deadlocks,
			r.BiasGrants, r.BiasRevokes, r.InvisReads, r.ValAborts,
			r.BlockTime.Round(time.Microsecond).String())
	}
	return tbl.String()
}

// promEscape escapes a Prometheus label value.
func promEscape(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// promFloat renders a float the way Prometheus text exposition wants
// it, including the +Inf literal.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return fmt.Sprintf("%g", v)
}

// Metrics renders the runtime's counters and per-site profile in
// Prometheus text exposition format. rec may be nil (recorder
// disabled).
func Metrics(snap stm.StatsSnapshot, sites []stm.SiteProfile, rec *stm.FlightRecorder) string {
	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	fmt.Fprintf(&b, "# HELP sbd_lock_ops_total Lock operations by effect (paper Table 7).\n")
	fmt.Fprintf(&b, "# TYPE sbd_lock_ops_total counter\n")
	for _, op := range []struct {
		label string
		v     uint64
	}{
		{"init", snap.Init},
		{"check_new", snap.CheckNew},
		{"check_owned", snap.CheckOwned},
		{"acquire", snap.Acquire},
	} {
		fmt.Fprintf(&b, "sbd_lock_ops_total{op=%q} %d\n", op.label, op.v)
	}

	counter("sbd_commits_total", "Committed transactions.", snap.Commits)
	counter("sbd_aborts_total", "Aborted transactions.", snap.Aborts)
	counter("sbd_contended_acquires_total", "Lock acquisitions that had to enqueue.", snap.Contended)
	counter("sbd_cas_failures_total", "Failed lock-word CAS attempts.", snap.CASFail)
	counter("sbd_slot_waits_total", "Sections that parked waiting for a lock-word slot lease.", snap.SlotWaits)
	fmt.Fprintf(&b, "# HELP sbd_slot_wait_seconds_total Time sections spent parked waiting for a lock-word slot lease.\n")
	fmt.Fprintf(&b, "# TYPE sbd_slot_wait_seconds_total counter\n")
	fmt.Fprintf(&b, "sbd_slot_wait_seconds_total %s\n", promFloat(float64(snap.SlotWaitNs)/1e9))
	counter("sbd_deadlocks_total", "Deadlock cycles resolved.", snap.Deadlocks)
	counter("sbd_inev_waits_total", "BecomeInevitable calls that waited for the token.", snap.InevWaits)
	counter("sbd_promotions_total", "Reads adaptively promoted to write acquisitions.", snap.Promotions)
	counter("sbd_promotions_wasted_total", "Promotions committed without a write (hint decay).", snap.PromoWasted)
	counter("sbd_duel_losses_total", "Upgrade aborts that boosted a promotion hint.", snap.DuelLosses)
	counter("sbd_backoffs_total", "Backed-off transaction retries.", snap.Backoffs)
	counter("sbd_backoff_spins_total", "Reschedules spent in retry backoff.", snap.BackoffSpins)
	counter("sbd_spin_acquires_total", "Slow-path acquisitions resolved by bounded spinning.", snap.SpinAcquires)
	counter("sbd_bias_grants_total", "Reads served by the biased reader-slot path.", snap.BiasGrants)
	counter("sbd_bias_revokes_total", "Writer revocations of read-biased lock words.", snap.BiasRevokes)
	counter("sbd_bias_write_throughs_total", "Writes that went through a bias marker without revoking it.", snap.BiasWriteThrus)
	fmt.Fprintf(&b, "# HELP sbd_bias_revoke_wait_seconds_total Time writers spent draining biased readers.\n")
	fmt.Fprintf(&b, "# TYPE sbd_bias_revoke_wait_seconds_total counter\n")
	fmt.Fprintf(&b, "sbd_bias_revoke_wait_seconds_total %s\n", promFloat(float64(snap.BiasRevokeWaitNs)/1e9))
	counter("sbd_invis_reads_total", "Reads served by the invisible optimistic tier.", snap.InvisReads)
	counter("sbd_validation_aborts_total", "Commit-time read-set validation failures.", snap.ValidationAborts)
	counter("sbd_mode_flips_total", "Per-site read-mode threshold crossings (visible<->invisible).", snap.ModeFlips)
	counter("sbd_batch_acquires_total", "Compiler-batched multi-word acquisitions (one per AcquireBatch).", snap.BatchAcquires)
	counter("sbd_batch_words_total", "Distinct lock words covered by batched acquisitions.", snap.BatchWords)
	counter("sbd_intent_hints_total", "Reads carrying compiler-inferred write intent (ReadWordForWrite).", snap.IntentHints)

	fmt.Fprintf(&b, "# HELP sbd_abort_rate Aborts per commit; +Inf when aborting without commits.\n")
	fmt.Fprintf(&b, "# TYPE sbd_abort_rate gauge\n")
	fmt.Fprintf(&b, "sbd_abort_rate %s\n", promFloat(snap.AbortRate()))

	if len(sites) > 0 {
		// Deterministic output: Prometheus does not care about series
		// order, but tests and diffs do.
		sorted := append([]stm.SiteProfile(nil), sites...)
		sort.Slice(sorted, func(i, j int) bool {
			return sorted[i].Site.String() < sorted[j].Site.String()
		})
		series := func(name, help string, get func(stm.SiteProfile) string) {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
			for _, r := range sorted {
				fmt.Fprintf(&b, "%s{site=\"%s\"} %s\n", name, promEscape(r.Site.String()), get(r))
			}
		}
		series("sbd_site_acquires_total", "Lock acquisitions per site.",
			func(r stm.SiteProfile) string { return fmt.Sprint(r.Acquires) })
		series("sbd_site_contended_total", "Contended acquisitions per site.",
			func(r stm.SiteProfile) string { return fmt.Sprint(r.Contended) })
		series("sbd_site_cas_failures_total", "Failed lock-word CAS attempts per site.",
			func(r stm.SiteProfile) string { return fmt.Sprint(r.CASFails) })
		series("sbd_site_upgrades_total", "Enqueued read-to-write upgrades per site.",
			func(r stm.SiteProfile) string { return fmt.Sprint(r.Upgrades) })
		series("sbd_site_promotions_total", "Adaptive write-intent promotions per site.",
			func(r stm.SiteProfile) string { return fmt.Sprint(r.Promotions) })
		series("sbd_site_duel_losses_total", "Hint-boosting upgrade aborts per site.",
			func(r stm.SiteProfile) string { return fmt.Sprint(r.DuelLosses) })
		series("sbd_site_deadlocks_total", "Acquire-path abort involvements per site.",
			func(r stm.SiteProfile) string { return fmt.Sprint(r.Deadlocks) })
		series("sbd_site_bias_grants_total", "Biased reader-slot grants per site.",
			func(r stm.SiteProfile) string { return fmt.Sprint(r.BiasGrants) })
		series("sbd_site_bias_revokes_total", "Read-bias revocations per site.",
			func(r stm.SiteProfile) string { return fmt.Sprint(r.BiasRevokes) })
		series("sbd_site_invis_reads_total", "Invisible optimistic reads per site.",
			func(r stm.SiteProfile) string { return fmt.Sprint(r.InvisReads) })
		series("sbd_site_validation_aborts_total", "Commit-time validation failures per site.",
			func(r stm.SiteProfile) string { return fmt.Sprint(r.ValAborts) })
		series("sbd_site_block_seconds_total", "Cumulative time blocked per site.",
			func(r stm.SiteProfile) string { return promFloat(r.BlockTime.Seconds()) })
	}

	if rec != nil {
		counter("sbd_recorder_events_total", "Protocol events recorded by the flight recorder.", rec.Recorded())
		fmt.Fprintf(&b, "# HELP sbd_recorder_capacity Flight recorder ring capacity.\n")
		fmt.Fprintf(&b, "# TYPE sbd_recorder_capacity gauge\n")
		fmt.Fprintf(&b, "sbd_recorder_capacity %d\n", rec.Cap())
	}
	return b.String()
}

// EventsDump renders the flight-recorder contents, oldest first.
func EventsDump(rec *stm.FlightRecorder) string {
	if rec == nil {
		return "flight recorder disabled\n"
	}
	var b strings.Builder
	rec.Dump(&b)
	return b.String()
}
