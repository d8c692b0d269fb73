// Command sbd-bench regenerates the paper's evaluation (§5): Table 5
// (programming effort), Table 6 (lock-operation microbenchmark), Table 7
// (locking operations per second), Table 8 (memory overhead), Table 9
// (overhead of SBD vs. explicit locking at 1–32 threads, with abort rate,
// contended acquires and CAS failures) and Figure 7 (speedup of both
// variants over the single-threaded baseline). -table selects among
// them; the default prints all six.
//
// Table 9 and Figure 7 print from one sweep over workloads × thread
// counts (Georges-style steady state, paper §5.1, with scaled-down
// iteration counts), which fails on a cell whose variants compute
// different results. Its one-thread row is the §5.2 sequential overhead.
// Tables 7 and 8 are per-run totals of one fresh single-threaded SBD run
// per workload. Table 9 also prints each workload's hottest lock sites
// (-topsites); -serve exposes live /metrics, /profile, /events and
// /stats while measuring. Machine-readable results live in benchmark/.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
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
	table    = flag.String("table", "", "comma-separated tables to print: 5,6,7,8,9,figure7 (default: all)")
	scale    = flag.Int("scale", 2, "workload input scale")
	bench    = flag.String("bench", "", "comma-separated workload names (default: all)")
	threads  = flag.String("threads", "1,2,4,8,16,32", "Table 9 thread counts")
	window   = flag.Int("window", 4, "steady-state window (paper: 30)")
	maxIters = flag.Int("maxiters", 8, "max iterations (paper: 60)")
	maxCoV   = flag.Float64("cov", 0.08, "CoV threshold (paper: 0.01)")
	ops      = flag.Int("ops", 2_000_000, "Table 6 operations (and instances) per cell")
	iters    = flag.Int("iters", 3, "Table 6 iterations per cell (median)")
	topSites = flag.Int("topsites", 5, "per-site contention rows to print per workload under Table 9 (0 disables)")
	serve    = flag.String("serve", "", "serve live /metrics+/profile+/events+/stats over TCP on this address (e.g. 127.0.0.1:9464); keeps serving after the run until interrupted")
)

var tableNames = []string{"5", "6", "7", "8", "9", "figure7"}

// listed reports whether a comma-separated selection names name; an
// empty selection names everything.
func listed(list, name string) bool {
	if list == "" {
		return true
	}
	for _, s := range strings.Split(list, ",") {
		if strings.TrimSpace(s) == name {
			return true
		}
	}
	return false
}

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

// usageError reports a flag combination that would measure nothing and
// exits 2, the status of any other flag error.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sbd-bench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	flag.Parse()
	for _, t := range strings.Split(*table, ",") {
		if *table != "" && !slices.Contains(tableNames, strings.TrimSpace(t)) {
			usageError("-table=%q names no table (have %s)", *table, strings.Join(tableNames, ","))
		}
	}
	counts := parseThreads(*threads)
	if len(counts) == 0 {
		usageError("-threads=%q: need at least one positive thread count", *threads)
	}
	var names []string
	var ws []*workloads.Workload
	for _, w := range workloads.All() {
		names = append(names, w.Name)
		if listed(*bench, w.Name) {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		usageError("-bench=%q names no workload (have %s)", *bench, strings.Join(names, ","))
	}

	// The live endpoint follows the runtime being measured; between runs
	// it reads the most recent one. Scrapes run on their own goroutines,
	// hence the atomic pointer.
	var current atomic.Pointer[core.Runtime]
	current.Store(core.New())
	if *serve != "" {
		src := func() *stm.Runtime { return current.Load().STM() }
		addr, err := obs.NewDynamicServer(src).ServeTCP(*serve)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sbd-bench: -serve: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("live metrics on http://%s/metrics (also /profile, /events, /stats)\n\n", addr)
	}

	// Tables 7 and 8 share one set of single runs, Table 9 and Figure 7
	// one sweep; each is measured when the first table needing it prints.
	out := os.Stdout
	var runs []singleRun
	var ss []series
	sep := ""
	for _, name := range tableNames {
		if !listed(*table, name) {
			continue
		}
		fmt.Fprint(out, sep)
		sep = "\n"
		switch name {
		case "5":
			table5(out, ws)
		case "6":
			table6(out, *ops, *iters)
		case "7", "8":
			if runs == nil {
				runs = singleRuns(ws, *scale, &current)
			}
			if name == "7" {
				table7(out, runs)
			} else {
				table8(out, runs)
			}
		case "9", "figure7":
			if ss == nil {
				cfg := harness.Config{Window: *window, MaxCoV: *maxCoV, MaxIters: *maxIters}
				var err error
				if ss, err = sweep(cfg, ws, *scale, counts, &current); err != nil {
					fmt.Fprintf(os.Stderr, "sbd-bench: %v\n", err)
					os.Exit(1)
				}
			}
			if name == "9" {
				table9(out, ss, *topSites)
			} else {
				figure7(out, ss)
			}
		}
	}
	if *serve != "" {
		fmt.Println("\nserving final state; interrupt to exit")
		select {}
	}
}

// printTable prints title, a blank line, tbl, and after another blank
// line the reading notes.
func printTable(out io.Writer, title string, tbl *harness.Table, notes ...string) {
	fmt.Fprintf(out, "%s\n\n%s\n%s\n", title, tbl, strings.Join(notes, "\n"))
}

// table5 prints the recorded modification inventory of each workload's
// adaptation (its Effort record); the LOC column is the paper's own.
func table5(out io.Writer, ws []*workloads.Workload) {
	tbl := harness.NewTable("Benchmark", "LOC", "Split", "Custom", "CanSplit", "Final",
		"Synchronized", "Volatile")
	for _, w := range ws {
		e := w.Effort
		tbl.Row(w.Name, e.LOC, e.Split, e.Custom, e.CanSplit, e.Final, e.Synchronized, e.Volatile)
	}
	printTable(out, "Table 5: number of benchmark modifications", tbl,
		"Reading guide (paper §5.2): split+custom vs synchronized+volatile is",
		"usually comparable; LuSearch/Tomcat need less synchronization code but",
		"more custom modifications — the asymmetry of SBD (§2.1).")
}

// singleRun is one fresh single-threaded SBD run of a workload: its
// counters are Table 7's operation counts and Table 8's byte totals.
type singleRun struct {
	name    string
	elapsed time.Duration
	snap    stm.StatsSnapshot
}

// singleRuns gives each workload a freshly prepared input and one
// single-threaded SBD run, so the per-run totals do not depend on what
// the sweep did to a shared input.
func singleRuns(ws []*workloads.Workload, scale int, current *atomic.Pointer[core.Runtime]) []singleRun {
	var runs []singleRun
	for _, w := range ws {
		in := w.Prepare(scale)
		rt := core.New()
		current.Store(rt)
		start := time.Now()
		w.SBD(rt, in, w.Threads(1))
		runs = append(runs, singleRun{w.Name, time.Since(start), rt.Stats().Snapshot()})
	}
	return runs
}

func table7(out io.Writer, runs []singleRun) {
	tbl := harness.NewTable("Benchmark", "Init/s", "CheckNew/s", "CheckOwned/s", "Acq/s")
	for _, r := range runs {
		sec := r.elapsed.Seconds()
		tbl.Row(r.name, perSec(r.snap.Init, sec), perSec(r.snap.CheckNew, sec),
			perSec(r.snap.CheckOwned, sec), perSec(r.snap.Acquire, sec))
	}
	printTable(out, "Table 7: locking operations per second (single-threaded run)", tbl,
		"Paper shape: LuIndex/LuSearch/PMD dominated by CheckNew, Sunflow by",
		"Init+CheckOwned, Tomcat by Acquire, H2 low everywhere.")
}

func table8(out io.Writer, runs []singleRun) {
	tbl := harness.NewTable("Benchmark", "Locks", "R-W set", "Buffers", "Init log", "Txns")
	for _, r := range runs {
		s := r.snap
		tbl.Row(r.name, kb(s.LockBytes), kb(s.RWSetBytes), kb(s.BufferBytes),
			kb(s.InitEntries*8), s.Commits+s.Aborts)
	}
	printTable(out, "Table 8: transaction memory overhead (one-thread run, luindex at its fixed two threads; totals)", tbl,
		"luindex's two threads can move its R-W set and add an abort to its",
		"Txns. From -scale 8 lusearch's R-W set varies too: a biased read",
		"whose reader-slot stripe (a hash of the word's heap address)",
		"collides within its transaction takes a visible lock instead. Every",
		"other row is the same on every run.",
		"Paper shape: LuSearch/Sunflow largest lock slabs, LuIndex largest",
		"buffers (index file written in one transaction), Tomcat large R-W",
		"set (many write locks), H2 almost nothing.")
}

func perSec(n uint64, sec float64) string {
	v := float64(n) / sec
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.0fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

func kb(b uint64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fkB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// cell is one workload × thread-count measurement of the sweep.
type cell struct {
	threads   int
	base, sbd time.Duration
	snap      stm.StatsSnapshot // of the last measured SBD run
}

// series is one workload's row of the sweep.
type series struct {
	w     *workloads.Workload
	cells []cell
	sites []stm.SiteProfile // of the last measured SBD run
}

// sweep measures baseline and SBD once per workload × thread count
// (LuIndex runs its fixed thread count once). It fails when a cell's
// variants compute different results.
func sweep(cfg harness.Config, ws []*workloads.Workload, scale int, counts []int,
	current *atomic.Pointer[core.Runtime]) ([]series, error) {
	var out []series
	for _, w := range ws {
		in := w.Prepare(scale)
		s := series{w: w}
		var last *core.Runtime
		for _, tc := range counts {
			n := w.Threads(tc)
			var base, sbd uint64
			baseRes := harness.Measure(cfg, func() { base = w.Baseline(in, n) })
			sbdRes := harness.Measure(cfg, func() {
				rt := core.New()
				current.Store(rt)
				sbd = w.SBD(rt, in, n)
				last = rt
			})
			if base != sbd {
				return nil, fmt.Errorf("%s at %d threads: variants disagree: %x vs %x", w.Name, tc, base, sbd)
			}
			s.cells = append(s.cells, cell{tc, baseRes.Mean, sbdRes.Mean, last.Stats().Snapshot()})
			if w.FixedThreads > 0 {
				break // LuIndex: single row
			}
		}
		s.sites = last.Profile().Snapshot()
		out = append(out, s)
	}
	return out, nil
}

func table9(out io.Writer, ss []series, topSites int) {
	var all, seq []float64
	for _, s := range ss {
		fmt.Fprintf(out, "Table 9 — %s\n", s.w.Name)
		tbl := harness.NewTable("Thr", "Base", "Sbd", "Ovr%", "Abr%", "Con", "Fail")
		for _, c := range s.cells {
			tbl.Row(c.threads, c.base.Round(time.Microsecond).String(),
				c.sbd.Round(time.Microsecond).String(),
				harness.OverheadPercent(c.base, c.sbd), obs.FormatRate(c.snap.AbortRate()*100),
				c.snap.Contended, c.snap.CASFail)
			ratio := float64(c.sbd) / float64(c.base)
			all = append(all, ratio)
			if c.threads == 1 {
				seq = append(seq, ratio)
			}
		}
		fmt.Fprint(out, tbl.String())
		if shown := s.sites; topSites > 0 && len(shown) > 0 {
			if len(shown) > topSites {
				shown = shown[:topSites]
			}
			fmt.Fprintf(out, "Contention profile — %s (last measured run, top %d of %d sites)\n",
				s.w.Name, len(shown), len(s.sites))
			fmt.Fprint(out, obs.ProfileTable(shown))
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "Geometric-mean SBD/baseline ratio: %.3f (paper: 1.239 overall, "+
		"0.4%%..102%% per cell)\n", harness.GeoMean(all))
	if len(seq) > 0 {
		fmt.Fprintf(out, "At 1 thread (the §5.2 sequential overhead): %.3f (paper: 2.05)\n",
			harness.GeoMean(seq))
	}
}

func figure7(out io.Writer, ss []series) {
	sep := ""
	for _, s := range ss {
		if s.w.FixedThreads > 0 {
			continue // the paper's Figure 7 excludes LuIndex
		}
		fmt.Fprint(out, sep)
		sep = "\n"
		fmt.Fprintf(out, "Figure 7 — %s (speedup over single-threaded baseline)\n", s.w.Name)
		base1 := s.cells[0].base
		tbl := harness.NewTable("Threads", "Baseline", "SBD")
		for _, c := range s.cells {
			tbl.Row(c.threads,
				fmt.Sprintf("%.2fx", harness.Speedup(base1, c.base)),
				fmt.Sprintf("%.2fx", harness.Speedup(base1, c.sbd)))
		}
		fmt.Fprint(out, tbl.String())
	}
}
