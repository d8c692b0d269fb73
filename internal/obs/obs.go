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
	"reflect"
	"sort"
	"strconv"
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

// series is one counter of a declaration struct (stm.StatsSnapshot or
// stm.SiteCounters), read off its struct tags once at package init:
// the struct is the only list of counters, the renderers walk it.
// Element i of a seriesOf slice describes field i of the struct.
type series struct {
	prom   string // series name, with any fixed label; "" = not on /metrics
	family string // prom without the label: one HELP/TYPE header per run
	help   string
	col    string // /profile column header
	ns     bool   // a nanosecond total: seconds on /metrics, a duration on /profile
}

func seriesOf(decl any) []series {
	t := reflect.TypeOf(decl)
	out := make([]series, t.NumField())
	for i := range out {
		tag := t.Field(i).Tag
		prom := tag.Get("prom")
		family, _, _ := strings.Cut(prom, "{")
		out[i] = series{prom, family, tag.Get("help"), tag.Get("col"), tag.Get("unit") == "ns"}
	}
	return out
}

var (
	statsSeries = seriesOf(stm.StatsSnapshot{})
	siteSeries  = seriesOf(stm.SiteCounters{})
)

// counter reads field i of a declaration struct; both uint64 counters
// and time.Duration totals come back as the raw 64-bit count.
func counter(decl reflect.Value, i int) uint64 {
	f := decl.Field(i)
	if f.CanInt() {
		return uint64(f.Int())
	}
	return f.Uint()
}

// promValue renders a counter value for /metrics.
func (s series) promValue(v uint64) string {
	if s.ns {
		return promFloat(float64(v) / 1e9)
	}
	return strconv.FormatUint(v, 10)
}

// ProfileTable renders the per-site contention profile as an aligned
// text table, hottest site first (the stm.Profile snapshot order).
func ProfileTable(rows []stm.SiteProfile) string {
	if len(rows) == 0 {
		return "no lock-site activity recorded\n"
	}
	header := []string{"Site", "Mode"}
	for _, s := range siteSeries {
		header = append(header, s.col)
	}
	tbl := harness.NewTable(header...)
	for _, r := range rows {
		cells := []any{r.Site.String(), r.Mode.String()}
		counts := reflect.ValueOf(r.SiteCounters)
		for i, s := range siteSeries {
			if v := counter(counts, i); s.ns {
				cells = append(cells, time.Duration(v).Round(time.Microsecond).String())
			} else {
				cells = append(cells, v)
			}
		}
		tbl.Row(cells...)
	}
	return tbl.String()
}

// promEscaper escapes a Prometheus label value.
var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

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
// Prometheus text exposition format.
func Metrics(snap stm.StatsSnapshot, sites []stm.SiteProfile, rec *stm.FlightRecorder) string {
	var b strings.Builder
	header := func(family, help, typ string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", family, help, family, typ)
	}

	counts := reflect.ValueOf(snap)
	family := ""
	for i, s := range statsSeries {
		if s.prom == "" {
			continue
		}
		if s.family != family {
			family = s.family
			header(s.family, s.help, "counter")
		}
		fmt.Fprintf(&b, "%s %s\n", s.prom, s.promValue(counter(counts, i)))
	}

	header("sbd_abort_rate", "Aborts per commit; +Inf when aborting without commits.", "gauge")
	fmt.Fprintf(&b, "sbd_abort_rate %s\n", promFloat(snap.AbortRate()))

	if len(sites) > 0 {
		// Deterministic output: Prometheus does not care about series
		// order, but tests and diffs do.
		sorted := append([]stm.SiteProfile(nil), sites...)
		sort.Slice(sorted, func(i, j int) bool {
			return sorted[i].Site.String() < sorted[j].Site.String()
		})
		labels := make([]string, len(sorted))
		counts := make([]reflect.Value, len(sorted))
		for i, r := range sorted {
			labels[i] = promEscaper.Replace(r.Site.String())
			counts[i] = reflect.ValueOf(r.SiteCounters)
		}
		for i, s := range siteSeries {
			header(s.family, s.help, "counter")
			for r := range sorted {
				fmt.Fprintf(&b, "%s{site=\"%s\"} %s\n", s.prom, labels[r], s.promValue(counter(counts[r], i)))
			}
		}
	}

	header("sbd_recorder_events_total", "Protocol events recorded by the flight recorder.", "counter")
	fmt.Fprintf(&b, "sbd_recorder_events_total %d\n", rec.Recorded())
	header("sbd_recorder_capacity", "Flight recorder ring capacity.", "gauge")
	fmt.Fprintf(&b, "sbd_recorder_capacity %d\n", rec.Cap())
	return b.String()
}

// EventsDump renders the flight-recorder contents, oldest first.
func EventsDump(rec *stm.FlightRecorder) string {
	var b strings.Builder
	rec.Dump(&b)
	return b.String()
}
