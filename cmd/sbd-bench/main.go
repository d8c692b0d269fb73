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
// hot" without a rerun; -metrics serves live Prometheus metrics over TCP
// while measuring. The contended-path scalability suite and every
// machine-readable result live in benchmark/ (bash benchmark/run.sh
// --workload stm-contend).
//
// Shape notes for single-core machines: speedups plateau at ~1× for both
// variants (there is no parallel hardware), but the overhead column —
// SBD vs. baseline at equal thread count — remains meaningful because
// both variants time-share the same core.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
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
	topSites = flag.Int("topsites", 5, "per-site contention rows to print per workload (0 disables)")
	metrics  = flag.String("metrics", "", "serve live /metrics+/profile over TCP on this address while measuring (e.g. 127.0.0.1:9464)")
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

// usageError reports a flag combination that would measure nothing and
// exits 2, the status of any other flag error.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sbd-bench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	flag.Parse()
	cfg := harness.Config{Window: *window, MaxCoV: *maxCoV, MaxIters: *maxIters}
	counts := parseThreads(*threads)
	if len(counts) == 0 {
		usageError("-threads=%q: need at least one positive thread count", *threads)
	}
	var names []string
	var ws []*workloads.Workload
	for _, w := range workloads.All() {
		names = append(names, w.Name)
		if selected(w.Name) {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		usageError("-bench=%q names no workload (have %s)", *bench, strings.Join(names, ","))
	}

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

	var overheads []float64
	for _, w := range ws {
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
	}

	if !*figure7 && len(overheads) > 0 {
		fmt.Printf("Geometric-mean SBD/baseline ratio: %.3f (paper: 1.239 overall, "+
			"0.4%%..102%% per cell)\n", harness.GeoMean(overheads))
	}
}
