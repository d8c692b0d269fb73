// Command sbd-stats regenerates Table 7 (locking operations per second,
// split by effect) and Table 8 (memory overhead: lock slabs, R-W set,
// I/O buffers, init log) of the paper. Both tables come from
// single-threaded runs of the six workloads with the STM statistics
// counters enabled, mirroring the paper's methodology (§5.3, §5.5).
//
// -profile additionally prints each workload's per-lock-site contention
// profile and a synchronization summary (commits, aborts, abort rate).
// -serve exposes live /metrics, /profile, and /events over TCP while
// the workloads run, then keeps serving the final state until
// interrupted.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/workloads"
)

var (
	table   = flag.Int("table", 0, "print only this table (7 or 8); 0 = both")
	scale   = flag.Int("scale", 2, "workload input scale")
	profile = flag.Bool("profile", false, "print per-lock-site contention profiles")
	serve   = flag.String("serve", "", "serve live /metrics+/profile+/events over TCP on this address (e.g. 127.0.0.1:9464); keeps serving after the run until interrupted")
)

func main() {
	flag.Parse()

	var current atomic.Pointer[core.Runtime]
	if *serve != "" {
		idle := stm.NewRuntime()
		srv := obs.NewDynamicServer(func() *stm.Runtime {
			if rt := current.Load(); rt != nil {
				return rt.STM()
			}
			return idle
		})
		addr, err := srv.ServeTCP(*serve)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sbd-stats: -serve: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("live metrics on http://%s/metrics (also /profile, /events)\n\n", addr)
	}

	type result struct {
		name    string
		elapsed time.Duration
		s       statsLine
		snap    stm.StatsSnapshot
		sites   []stm.SiteProfile
	}
	var results []result
	for _, w := range workloads.All() {
		in := w.Prepare(*scale)
		rt := core.New()
		current.Store(rt)
		threads := w.Threads(1)
		start := time.Now()
		w.SBD(rt, in, threads)
		elapsed := time.Since(start)
		snap := rt.Stats().Snapshot()
		results = append(results, result{w.Name, elapsed, statsLine{
			init: snap.Init, checkNew: snap.CheckNew, checkOwned: snap.CheckOwned,
			acq: snap.Acquire, lockBytes: snap.LockBytes,
			rwSet: snap.RWSetBytes, buffers: snap.BufferBytes,
			initLog: snap.InitEntries * 8, txns: snap.Commits + snap.Aborts,
		}, snap, rt.Profile().Snapshot()})
	}

	if *table == 0 || *table == 7 {
		fmt.Println("Table 7: locking operations per second (single-threaded run)")
		fmt.Println()
		t7 := harness.NewTable("Benchmark", "Init/s", "CheckNew/s", "CheckOwned/s", "Acq/s")
		for _, r := range results {
			sec := r.elapsed.Seconds()
			t7.Row(r.name, perSec(r.s.init, sec), perSec(r.s.checkNew, sec),
				perSec(r.s.checkOwned, sec), perSec(r.s.acq, sec))
		}
		fmt.Print(t7.String())
		fmt.Println()
		fmt.Println("Paper shape: LuIndex/LuSearch/PMD dominated by CheckNew, Sunflow by")
		fmt.Println("Init+CheckOwned, Tomcat by Acquire, H2 low everywhere.")
		fmt.Println()
	}

	if *table == 0 || *table == 8 {
		fmt.Println("Table 8: transaction memory overhead (single-threaded run, totals)")
		fmt.Println()
		t8 := harness.NewTable("Benchmark", "Locks", "R-W set", "Buffers", "Init log", "Txns")
		for _, r := range results {
			t8.Row(r.name, kb(r.s.lockBytes), kb(r.s.rwSet), kb(r.s.buffers),
				kb(r.s.initLog), r.s.txns)
		}
		fmt.Print(t8.String())
		fmt.Println()
		fmt.Println("Paper shape: LuSearch/Sunflow largest lock slabs, LuIndex largest")
		fmt.Println("buffers (index file written in one transaction), Tomcat large R-W")
		fmt.Println("set (many write locks), H2 almost nothing.")
	}

	if *profile {
		fmt.Println()
		for _, r := range results {
			fmt.Printf("Contention profile — %s (commits %d, aborts %d, abort rate %s)\n",
				r.name, r.snap.Commits, r.snap.Aborts, obs.FormatRate(r.snap.AbortRate()))
			fmt.Print(obs.ProfileTable(r.sites))
			fmt.Println()
		}
	}

	if *serve != "" {
		fmt.Println("\nserving final state; interrupt to exit")
		select {}
	}
}

type statsLine struct {
	init, checkNew, checkOwned, acq    uint64
	lockBytes, rwSet, buffers, initLog uint64
	txns                               uint64
}

func perSec(n uint64, sec float64) string {
	if sec <= 0 {
		return "-"
	}
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
