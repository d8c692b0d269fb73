package main

import (
	"fmt"
	"math/rand"
	"syscall"
	"time"

	"repro/internal/scalebench"
)

// Constants of stm-contend.
const (
	// contendOps is the committed transactions per cell, sized so that a
	// cell took 0.3-0.6 s at the seed commit (fifty times the cells of the
	// repository's BENCH_*.json snapshots). Cells of 400 000 gave more
	// rounds per run and three times the run-to-run spread.
	contendOps = 1000000
	// contendWarmOps is the per-cell size of the untimed warm-up round.
	contendWarmOps = 25000
)

// contendCell is one (mix, threads) cell's samples over the rounds.
type contendCell struct {
	txnsPerSec []float64
	cpuUsPerOp []float64
	traced     []float64 // txns/s of traced rounds
	plain      []float64 // and of untraced rounds
}

// runCell runs one scalebench cell. scalebench.Run panics when its own
// verification fails; that is a failed operation, not a crash.
func runCell(m scalebench.Mix, threads, ops int) (r scalebench.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s@%d: %v", m.Name, threads, p)
		}
	}()
	return scalebench.Run(m, threads, ops), nil
}

// runContend runs every scalebench mix at nproc threads and at one
// thread, in seeded order, round after round for about seconds. With
// trace set every other round records a span around each Run.
func runContend(cfg config, seconds float64, trace bool, res *result) error {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	mixes := scalebench.Mixes()
	threadCounts := []int{cfg.nproc, 1}
	res.constant("ops_per_cell", contendOps)
	res.constant("threads", threadCounts)

	attempt := func(m scalebench.Mix, threads, ops int) (scalebench.Result, bool) {
		res.attempted++
		r, err := runCell(m, threads, ops)
		if err != nil {
			res.failed++
			res.problem("%v", err)
		}
		return r, err == nil
	}

	// Set-up: everything before the first measured cell, which is each
	// cell's runtime, objects and workers plus the warm-up round. It is
	// done again after every round, so that setup_s is a median over the
	// whole run and not a reading of the run's first second.
	var setups []float64
	setUp := func() {
		t0 := time.Now()
		for _, m := range mixes {
			for _, th := range threadCounts {
				attempt(m, th, contendWarmOps)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	setUp()

	var tr *tracer
	spans := make([]spanKind, len(mixes))
	if trace {
		var err error
		if tr, err = newTracer(0, time.Now(), 1<<12); err != nil {
			return err
		}
		for i, m := range mixes {
			spans[i] = newSpanKind("scalebench." + m.Name)
		}
	}

	type cellID struct{ mix, threads int }
	var order []cellID
	for i := range mixes {
		for _, th := range threadCounts {
			order = append(order, cellID{i, th})
		}
	}
	cells := map[cellID]*contendCell{}
	for _, id := range order {
		cells[id] = &contendCell{}
	}
	var total scalebench.Result // counters summed over the nproc-thread cells

	rng := rand.New(rand.NewSource(cfg.seed))
	rounds := 0
	var roundTime time.Duration
	for ; rounds < 2 || time.Now().Add(roundTime).Before(deadline); rounds++ {
		t0 := time.Now()
		var t *tracer // nil in untraced rounds
		if trace && rounds%2 == 1 {
			t = tr
			t.req = uint32(rounds)
		}
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, id := range order {
			c0 := processCPU()
			t.begin(spans[id.mix])
			r, ok := attempt(mixes[id.mix], id.threads, contendOps)
			t.end()
			cpu := processCPU() - c0
			if !ok {
				continue
			}
			c := cells[id]
			c.txnsPerSec = append(c.txnsPerSec, r.TxnsPerSec)
			c.cpuUsPerOp = append(c.cpuUsPerOp, float64(cpu)/1e3/float64(r.Ops))
			if t != nil {
				c.traced = append(c.traced, r.TxnsPerSec)
			} else {
				c.plain = append(c.plain, r.TxnsPerSec)
			}
			if id.threads == cfg.nproc {
				total = addResults(total, r)
			}
		}
		setUp()
		roundTime = time.Since(t0)
	}
	res.constant("rounds", rounds)
	res.cell("setup_s", setups)
	res.set("setup_s", median(setups))

	var wide, scale, cpu, tracedOver []float64
	for i, m := range mixes {
		n, one := cells[cellID{i, cfg.nproc}], cells[cellID{i, 1}]
		if len(n.txnsPerSec) == 0 || len(one.txnsPerSec) == 0 {
			return fmt.Errorf("%s: no cell completed", m.Name)
		}
		tn, t1 := median(n.txnsPerSec), median(one.txnsPerSec)
		wide = append(wide, tn)
		scale = append(scale, tn/t1)
		cpu = append(cpu, median(n.cpuUsPerOp))
		res.set("scalebench."+m.Name+"_txns_s", tn)
		res.set("scalebench."+m.Name+"_t1_txns_s", t1)
		res.cell("scalebench."+m.Name+"_txns_s", n.txnsPerSec)
		res.cell("scalebench."+m.Name+"_t1_txns_s", one.txnsPerSec)
		if trace {
			tracedOver = append(tracedOver, median(n.plain)/median(n.traced), median(one.plain)/median(one.traced))
		}
	}
	res.set("txns_s", geomean(wide))
	res.set("throughput", geomean(wide))
	res.set("cpu_us_per_op", geomean(cpu))
	res.set("scalebench.scale_x", geomean(scale))
	rss, err := peakRSSMB(syscall.Getpid())
	if err != nil {
		return err
	}
	res.set("peak_rss_mb", rss)
	if !trace {
		return nil
	}

	res.set("benchmark.trace_overhead_pct", 100*(geomean(tracedOver)-1))
	perK := func(name string, v uint64) { res.set(name, 1000*float64(v)/float64(total.Ops)) }
	perK("stm.aborts_per_ktxn", total.Aborts)
	perK("stm.contended_per_ktxn", total.Contended)
	perK("stm.casfail_per_ktxn", total.CASFails)
	perK("stm.validation_aborts_per_ktxn", total.ValidationAborts)
	perK("stm.invis_reads_per_ktxn", total.InvisReads)
	perK("stm.bias_grants_per_ktxn", total.BiasGrants)
	perK("stm.bias_revokes_per_ktxn", total.BiasRevokes)
	perK("stm.bias_write_thrus_per_ktxn", total.BiasWriteThrus)
	res.set("stm.batch_words_per_batch", ratio(float64(total.BatchWords), float64(total.BatchAcquires)))
	res.set("stm.slot_waits", float64(total.SlotWaits))
	res.set("stm.deadlocks", float64(total.Deadlocks))
	res.set("stm.mode_flips", float64(total.ModeFlips))
	path, err := writeTrace(cfg.outDir, "stm-contend", []*tracer{tr})
	if err != nil {
		return err
	}
	res.constant("trace_file", path)
	return nil
}

// addResults adds b's counters to a.
func addResults(a, b scalebench.Result) scalebench.Result {
	a.Ops += b.Ops
	a.Aborts += b.Aborts
	a.Contended += b.Contended
	a.CASFails += b.CASFails
	a.Deadlocks += b.Deadlocks
	a.SlotWaits += b.SlotWaits
	a.BiasGrants += b.BiasGrants
	a.BiasRevokes += b.BiasRevokes
	a.BiasWriteThrus += b.BiasWriteThrus
	a.InvisReads += b.InvisReads
	a.ValidationAborts += b.ValidationAborts
	a.ModeFlips += b.ModeFlips
	a.BatchAcquires += b.BatchAcquires
	a.BatchWords += b.BatchWords
	return a
}
