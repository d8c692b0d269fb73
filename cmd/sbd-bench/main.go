// Command sbd-bench regenerates Table 9 (runtime overhead of the SBD
// approach vs. explicit locking at 1–32 threads, plus abort rate,
// contended acquires, and CAS failures) and Figure 7 (speedup curves of
// both variants over the single-threaded baseline).
//
// Methodology follows the paper's §5.1 (Georges-style steady state); the
// iteration counts are configurable because the full paper configuration
// (10 JVM invocations × up to 60 iterations) is a multi-hour run.
//
// Every run also emits the per-lock-site contention profile of the last
// measured SBD iteration next to its timings, answering "which lock was
// hot" without a rerun. -json writes a machine-readable snapshot;
// -metrics serves live Prometheus metrics over TCP while measuring.
//
// Shape notes for single-core machines: speedups plateau at ~1× for both
// variants (there is no parallel hardware), but the overhead column —
// SBD vs. baseline at equal thread count — remains meaningful because
// both variants time-share the same core.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/scalebench"
	"repro/internal/stm"
	"repro/internal/workloads"
)

var (
	scale    = flag.Int("scale", 2, "workload input scale")
	bench    = flag.String("bench", "", "comma-separated benchmark names (default: all)")
	threads  = flag.String("threads", "1,2,4,8,16,32", "thread counts")
	window   = flag.Int("window", 4, "steady-state window (paper: 30)")
	maxIters = flag.Int("maxiters", 8, "max iterations (paper: 60)")
	maxCoV   = flag.Float64("cov", 0.08, "CoV threshold (paper: 0.01)")
	figure7  = flag.Bool("figure7", false, "print Figure 7 speedup series instead of Table 9")
	jsonOut  = flag.String("json", "", "write a machine-readable result snapshot to this file")
	topSites = flag.Int("topsites", 5, "per-site contention rows to print per workload (0 disables)")
	metrics  = flag.String("metrics", "", "serve live /metrics+/profile over TCP on this address while measuring (e.g. 127.0.0.1:9464)")

	scalability = flag.Bool("scalability", false, "run the contended-path scalability suite (internal/scalebench) instead of Table 9")
	scalOps     = flag.Int("ops", 20000, "committed transactions per scalability cell")
	scalBase    = flag.String("baseline", "", "earlier -scalability snapshot to print deltas against and embed as the 'before' half of -json")
)

func parseThreads(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		var n int
		fmt.Sscanf(strings.TrimSpace(part), "%d", &n)
		if n > 0 {
			out = append(out, n)
		}
	}
	return out
}

// selected reports whether -bench selects the named workload; an empty
// -bench selects everything.
func selected(name string) bool {
	if *bench == "" {
		return true
	}
	for _, b := range strings.Split(*bench, ",") {
		if strings.TrimSpace(b) == name {
			return true
		}
	}
	return false
}

type cell struct {
	threads   int
	base, sbd time.Duration
	overhead  float64
	abortRate float64
	contended uint64
	casFail   uint64
}

// JSON snapshot schema (BENCH_2.json). Abort rates are strings because
// a livelocked window is +Inf, which encoding/json refuses as a number.
type jsonCell struct {
	Threads      int     `json:"threads"`
	BaseNs       int64   `json:"base_ns"`
	SbdNs        int64   `json:"sbd_ns"`
	OverheadPct  float64 `json:"overhead_pct"`
	AbortRatePct string  `json:"abort_rate_pct"`
	Contended    uint64  `json:"contended"`
	CASFail      uint64  `json:"cas_fail"`
}

type jsonSite struct {
	Site      string `json:"site"`
	Acquires  uint64 `json:"acquires"`
	Contended uint64 `json:"contended"`
	CASFails  uint64 `json:"cas_fails"`
	Upgrades  uint64 `json:"upgrades"`
	Deadlocks uint64 `json:"deadlocks"`
	BlockNs   int64  `json:"block_ns"`
}

type jsonWorkload struct {
	Name  string     `json:"name"`
	Cells []jsonCell `json:"cells"`
	Sites []jsonSite `json:"top_sites"`
}

type jsonReport struct {
	Tool      string         `json:"tool"`
	Scale     int            `json:"scale"`
	Window    int            `json:"window"`
	MaxIters  int            `json:"max_iters"`
	Workloads []jsonWorkload `json:"workloads"`
}

// Scalability-suite JSON schema (BENCH_3.json). The file holds *two*
// snapshots: "before" is an earlier capture loaded via -baseline (the
// global-mutex detector, in the repo's trajectory), "after" is the run
// that wrote the file.
type scalCell struct {
	Mix        string  `json:"mix"`
	Threads    int     `json:"threads"`
	Ops        uint64  `json:"ops"`
	ElapsedNs  int64   `json:"elapsed_ns"`
	TxnsPerSec float64 `json:"txns_per_sec"`
	Aborts     uint64  `json:"aborts"`
	Contended  uint64  `json:"contended"`
	CASFails   uint64  `json:"cas_fails"`
	Deadlocks  uint64  `json:"deadlocks"`
	SlotWaits  uint64  `json:"slot_waits,omitempty"`
	// Read-bias counters; omitted from snapshots taken before the bias
	// layer existed, so older baselines decode with zeros.
	BiasGrants     uint64 `json:"bias_grants,omitempty"`
	BiasRevokes    uint64 `json:"bias_revokes,omitempty"`
	BiasWriteThrus uint64 `json:"bias_write_thrus,omitempty"`
	// Invisible-read counters; likewise omitted from older baselines.
	InvisReads       uint64 `json:"invis_reads,omitempty"`
	ValidationAborts uint64 `json:"validation_aborts,omitempty"`
	ModeFlips        uint64 `json:"mode_flips,omitempty"`
	// Compiler-directed fast-path counters; likewise omitted from older
	// baselines.
	BatchAcquires uint64 `json:"batch_acquires,omitempty"`
	BatchWords    uint64 `json:"batch_words,omitempty"`
	IntentHints   uint64 `json:"intent_hints,omitempty"`
}

type scalSnapshot struct {
	Tool       string     `json:"tool"`
	Mode       string     `json:"mode"`
	OpsPerCell int        `json:"ops_per_cell"`
	Cells      []scalCell `json:"cells"`
}

type scalReport struct {
	Tool   string        `json:"tool"`
	Mode   string        `json:"mode"`
	Before *scalSnapshot `json:"before,omitempty"`
	After  scalSnapshot  `json:"after"`
}

// loadScalBaseline accepts either a bare snapshot or a full before/after
// report (in which case its "after" half is the baseline).
func loadScalBaseline(path string) (*scalSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep scalReport
	if err := json.Unmarshal(data, &rep); err == nil && len(rep.After.Cells) > 0 {
		return &rep.After, nil
	}
	var snap scalSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

func runScalability() {
	var before *scalSnapshot
	if *scalBase != "" {
		b, err := loadScalBaseline(*scalBase)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sbd-bench: -baseline: %v\n", err)
			os.Exit(1)
		}
		before = b
	}
	baseOf := func(mix string, threads int) *scalCell {
		if before == nil {
			return nil
		}
		for i := range before.Cells {
			if before.Cells[i].Mix == mix && before.Cells[i].Threads == threads {
				return &before.Cells[i]
			}
		}
		return nil
	}

	after := scalSnapshot{Tool: "sbd-bench", Mode: "scalability", OpsPerCell: *scalOps}
	for _, m := range scalebench.Mixes() {
		fmt.Printf("Scalability — %s (%s)\n", m.Name, m.Desc)
		hdr := []string{"Thr", "Txns/s", "Abr", "Con", "Fail", "Dlk", "Bias", "Rvk", "WThr", "Invis", "VAbr", "Batch", "Hint"}
		if before != nil {
			hdr = append(hdr, "vs-base")
		}
		tbl := harness.NewTable(hdr...)
		for _, tc := range scalebench.ThreadCounts {
			res := scalebench.Run(m, tc, *scalOps)
			after.Cells = append(after.Cells, scalCell{
				Mix:              res.Mix,
				Threads:          res.Threads,
				Ops:              res.Ops,
				ElapsedNs:        res.Elapsed.Nanoseconds(),
				TxnsPerSec:       res.TxnsPerSec,
				Aborts:           res.Aborts,
				Contended:        res.Contended,
				CASFails:         res.CASFails,
				Deadlocks:        res.Deadlocks,
				SlotWaits:        res.SlotWaits,
				BiasGrants:       res.BiasGrants,
				BiasRevokes:      res.BiasRevokes,
				BiasWriteThrus:   res.BiasWriteThrus,
				InvisReads:       res.InvisReads,
				ValidationAborts: res.ValidationAborts,
				ModeFlips:        res.ModeFlips,
				BatchAcquires:    res.BatchAcquires,
				BatchWords:       res.BatchWords,
				IntentHints:      res.IntentHints,
			})
			row := []any{tc, fmt.Sprintf("%.0f", res.TxnsPerSec),
				res.Aborts, res.Contended, res.CASFails, res.Deadlocks,
				res.BiasGrants, res.BiasRevokes, res.BiasWriteThrus,
				res.InvisReads, res.ValidationAborts,
				res.BatchAcquires, res.IntentHints}
			if b := baseOf(res.Mix, tc); b != nil && b.TxnsPerSec > 0 {
				row = append(row, fmt.Sprintf("%.2fx", res.TxnsPerSec/b.TxnsPerSec))
			} else if before != nil {
				row = append(row, "-")
			}
			tbl.Row(row...)
		}
		fmt.Print(tbl.String())
		fmt.Println()
	}

	if *jsonOut != "" {
		rep := scalReport{Tool: "sbd-bench", Mode: "scalability", Before: before, After: after}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sbd-bench: -json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
}

func main() {
	flag.Parse()
	if *scalability {
		runScalability()
		return
	}
	cfg := harness.Config{Window: *window, MaxCoV: *maxCoV, MaxIters: *maxIters}
	counts := parseThreads(*threads)

	// The live metrics endpoint follows the currently-measured runtime;
	// between iterations it reads the most recent one. Scrapes run on
	// their own goroutines, hence the atomic pointer.
	var current atomic.Pointer[core.Runtime]
	if *metrics != "" {
		idle := stm.NewRuntime()
		probe := func() *stm.Runtime {
			if rt := current.Load(); rt != nil {
				return rt.STM()
			}
			return idle
		}
		addr, err := obs.NewDynamicServer(probe).ServeTCP(*metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sbd-bench: -metrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("live metrics on http://%s/metrics (also /profile, /events)\n\n", addr)
	}

	report := jsonReport{Tool: "sbd-bench", Scale: *scale, Window: *window, MaxIters: *maxIters}
	var overheads []float64
	for _, w := range workloads.All() {
		if !selected(w.Name) {
			continue
		}
		in := w.Prepare(*scale)
		var cells []cell
		var lastRT *core.Runtime
		for _, tc := range counts {
			n := w.Threads(tc)
			baseRes := harness.Measure(cfg, func() { w.Baseline(in, n) })

			var last *core.Runtime
			sbdRes := harness.Measure(cfg, func() {
				rt := core.New()
				current.Store(rt)
				w.SBD(rt, in, n)
				last = rt
			})
			snap := last.Stats().Snapshot()
			c := cell{
				threads:   tc,
				base:      baseRes.Mean,
				sbd:       sbdRes.Mean,
				overhead:  harness.OverheadPercent(baseRes.Mean, sbdRes.Mean),
				abortRate: snap.AbortRate() * 100,
				contended: snap.Contended,
				casFail:   snap.CASFail,
			}
			cells = append(cells, c)
			overheads = append(overheads, float64(sbdRes.Mean)/float64(baseRes.Mean))
			lastRT = last
			if w.FixedThreads > 0 {
				break // LuIndex: single row
			}
		}

		if *figure7 {
			if w.FixedThreads > 0 {
				continue // the paper's Figure 7 excludes LuIndex
			}
			fmt.Printf("Figure 7 — %s (speedup over single-threaded baseline)\n", w.Name)
			base1 := cells[0].base
			tbl := harness.NewTable("Threads", "Baseline", "SBD")
			for _, c := range cells {
				tbl.Row(c.threads,
					fmt.Sprintf("%.2fx", harness.Speedup(base1, c.base)),
					fmt.Sprintf("%.2fx", harness.Speedup(base1, c.sbd)))
			}
			fmt.Print(tbl.String())
			fmt.Println()
			continue
		}

		fmt.Printf("Table 9 — %s\n", w.Name)
		tbl := harness.NewTable("Thr", "Base", "Sbd", "Ovr%", "Abr%", "Con", "Fail")
		for _, c := range cells {
			tbl.Row(c.threads, c.base.Round(time.Microsecond).String(),
				c.sbd.Round(time.Microsecond).String(),
				c.overhead, obs.FormatRate(c.abortRate), c.contended, c.casFail)
		}
		fmt.Print(tbl.String())

		var sites []stm.SiteProfile
		if lastRT != nil {
			sites = lastRT.Profile().Snapshot()
		}
		if *topSites > 0 && len(sites) > 0 {
			shown := sites
			if len(shown) > *topSites {
				shown = shown[:*topSites]
			}
			fmt.Printf("Contention profile — %s (last measured run, top %d of %d sites)\n",
				w.Name, len(shown), len(sites))
			fmt.Print(obs.ProfileTable(shown))
		}
		fmt.Println()

		jw := jsonWorkload{Name: w.Name}
		for _, c := range cells {
			jw.Cells = append(jw.Cells, jsonCell{
				Threads:      c.threads,
				BaseNs:       c.base.Nanoseconds(),
				SbdNs:        c.sbd.Nanoseconds(),
				OverheadPct:  c.overhead,
				AbortRatePct: obs.FormatRate(c.abortRate),
				Contended:    c.contended,
				CASFail:      c.casFail,
			})
		}
		for i, s := range sites {
			if *topSites > 0 && i >= *topSites {
				break
			}
			jw.Sites = append(jw.Sites, jsonSite{
				Site:      s.Site.String(),
				Acquires:  s.Acquires,
				Contended: s.Contended,
				CASFails:  s.CASFails,
				Upgrades:  s.Upgrades,
				Deadlocks: s.Deadlocks,
				BlockNs:   int64(s.BlockTime),
			})
		}
		report.Workloads = append(report.Workloads, jw)
	}

	if !*figure7 && len(overheads) > 0 {
		fmt.Printf("Geometric-mean SBD/baseline ratio: %.3f (paper: 1.239 overall, "+
			"0.4%%..102%% per cell)\n", harness.GeoMean(overheads))
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sbd-bench: -json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
}
