package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/stm"
	"repro/internal/workloads"
)

// program is one of the six paper programs at its fixed input size.
// One iteration is reps back-to-back runs at scale, sized so that an SBD
// iteration took 100-200 ms at the seed commit: long enough to time,
// short enough for ten baseline/SBD pairs of all six in one run.
// (sunflow's image stops growing at scale 8, hence the repetitions.)
//
// luindex cannot run on one thread: its main/worker pair is fixed. At
// the seed commit its SBD iteration took anywhere from 150 to 590 ms on
// two cores, by the luck of the hand-off between the two, while the five
// single-threaded programs repeat within 3%. It is measured and reported
// per layer like the others, but the end-to-end figures, which are about
// sequential overhead, are taken over the five.
type program struct {
	name       string
	scale      int
	reps       int
	sequential bool
}

var programs = []program{
	{"luindex", 32, 1, false},
	{"lusearch", 32, 1, true},
	{"pmd", 48, 1, true},
	{"sunflow", 8, 16, true},
	{"h2", 40, 1, true},
	{"tomcat", 512, 1, true},
}

// maxCoV is the steady-state threshold of internal/harness's default
// configuration; a cell above it is reported as unconverged.
const maxCoV = 0.05

// dacapoCell is one (program, variant) cell's samples over the rounds.
type dacapoCell struct {
	wallMs []float64
	cpuUs  []float64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timed runs fn after a collection, so that a run pays for its own
// garbage only, and returns its wall and process CPU time.
func timed(fn func()) (wall, cpu time.Duration) {
	runtime.GC()
	c0, t0 := processCPU(), time.Now()
	fn()
	return time.Since(t0), processCPU() - c0
}

func cov(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	var sum, sq float64
	for _, x := range v {
		sum += x
	}
	mean := sum / float64(len(v))
	for _, x := range v {
		sq += (x - mean) * (x - mean)
	}
	return ratio(math.Sqrt(sq/float64(len(v))), mean)
}

// runDacapo runs the six programs single-threaded, baseline and SBD
// interleaved, for about seconds. With trace set, every other round
// records spans and the SBD run's stm counters, and the unit-cost
// probes run afterwards.
func runDacapo(cfg config, seconds float64, trace bool, res *result) error {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	ws := make([]*workloads.Workload, len(programs))
	for i, p := range programs {
		w, err := workloads.ByName(p.name)
		if err != nil {
			return err
		}
		ws[i] = w
		res.constant("scale."+p.name, fmt.Sprintf("scale %d x %d", p.scale, p.reps))
	}

	// Set-up: build every program's input. It is done again after every
	// round, so that setup_s is a median over the whole run and not a
	// reading of the run's first second.
	inputs := make([]any, len(programs))
	var setups []float64
	setUp := func() {
		t0 := time.Now()
		for i, p := range programs {
			inputs[i] = ws[i].Prepare(p.scale)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	setUp()

	var tr *tracer
	baseSpan := make([]spanKind, len(programs))
	sbdSpan := make([]spanKind, len(programs))
	if trace {
		var err error
		if tr, err = newTracer(0, time.Now(), 1<<12); err != nil {
			return err
		}
		for i, p := range programs {
			baseSpan[i] = newSpanKind("workloads." + p.name + ".baseline")
			sbdSpan[i] = newSpanKind("workloads." + p.name + ".sbd")
		}
	}

	base := make([]dacapoCell, len(programs))
	sbd := make([]dacapoCell, len(programs))
	tracedMs := make([][]float64, len(programs)) // SBD wall times of traced rounds
	plainMs := make([][]float64, len(programs))  // and of untraced rounds
	counts := make([]stm.StatsSnapshot, len(programs))

	runBase := func(i int) (sum uint64) {
		for range programs[i].reps {
			sum = ws[i].Baseline(inputs[i], ws[i].Threads(1))
		}
		return sum
	}
	// runSBD runs one SBD iteration, each repetition on a fresh runtime as
	// cmd/sbd-bench does, and adds the runtimes' counters into snap.
	runSBD := func(i int, snap *stm.StatsSnapshot) (sum uint64) {
		for range programs[i].reps {
			rt := core.New()
			sum = ws[i].SBD(rt, inputs[i], ws[i].Threads(1))
			if snap != nil {
				*snap = addStats(*snap, rt.Stats().Snapshot())
			}
		}
		return sum
	}
	check := func(i int, b, s uint64) {
		res.attempted += 2
		if b != s {
			res.failed++
			res.problem("%s: baseline checksum %#x, SBD checksum %#x", programs[i].name, b, s)
		}
	}

	// Warm-up: one untimed pair per program.
	for i := range programs {
		check(i, runBase(i), runSBD(i, nil))
	}

	// Measured rounds: every program once per round in a seeded order,
	// the order within each baseline/SBD pair seeded too.
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
		for _, i := range rng.Perm(len(programs)) {
			var b, s uint64
			doBase := func() {
				wall, cpu := timed(func() {
					t.begin(baseSpan[i])
					b = runBase(i)
					t.end()
				})
				base[i].wallMs = append(base[i].wallMs, float64(wall)/1e6)
				base[i].cpuUs = append(base[i].cpuUs, float64(cpu)/1e3)
			}
			doSBD := func() {
				var snap *stm.StatsSnapshot
				if t != nil {
					counts[i] = stm.StatsSnapshot{}
					snap = &counts[i]
				}
				wall, cpu := timed(func() {
					t.begin(sbdSpan[i])
					s = runSBD(i, snap)
					t.end()
				})
				sbd[i].wallMs = append(sbd[i].wallMs, float64(wall)/1e6)
				sbd[i].cpuUs = append(sbd[i].cpuUs, float64(cpu)/1e3)
				if t != nil {
					tracedMs[i] = append(tracedMs[i], float64(wall)/1e6)
				} else {
					plainMs[i] = append(plainMs[i], float64(wall)/1e6)
				}
			}
			if rng.Intn(2) == 0 {
				doBase()
				doSBD()
			} else {
				doSBD()
				doBase()
			}
			check(i, b, s)
		}
		setUp()
		roundTime = time.Since(t0)
	}
	res.constant("rounds", rounds)
	res.constant("threads", 1)
	res.cell("setup_s", setups)
	res.set("setup_s", median(setups))

	// End to end: the paper's headline ratio and the absolute time that
	// guards it against a slower baseline.
	var ratios, tracedOver []float64
	var sbdMs, sbdCPU, gapNs, n float64
	covMax, unconverged := 0.0, 0
	for i, p := range programs {
		b, s := median(base[i].wallMs), median(sbd[i].wallMs)
		gapNs += (s - b) * 1e6
		if p.sequential {
			ratios = append(ratios, s/b)
			sbdMs += s
			sbdCPU += median(sbd[i].cpuUs)
			n++
		}
		res.set("workloads."+p.name+"_overhead_x", s/b)
		res.set("workloads."+p.name+"_sbd_ms", s)
		res.set("workloads."+p.name+"_base_ms", b)
		res.cell("workloads."+p.name+"_sbd_ms", sbd[i].wallMs)
		res.cell("workloads."+p.name+"_base_ms", base[i].wallMs)
		for _, cell := range [][]float64{base[i].wallMs, sbd[i].wallMs} {
			c := cov(cell)
			covMax = max(covMax, c)
			if c > maxCoV {
				unconverged++
			}
		}
		if trace {
			tracedOver = append(tracedOver, median(tracedMs[i])/median(plainMs[i]))
		}
	}
	res.set("seq_overhead_x", geomean(ratios))
	res.set("sbd_time_s", sbdMs/1e3)
	res.set("throughput", n/(sbdMs/1e3))
	res.set("cpu_us_per_op", sbdCPU/n)
	res.set("workloads.cov_max", covMax)
	res.set("workloads.unconverged", float64(unconverged))
	rss, err := peakRSSMB(syscall.Getpid())
	if err != nil {
		return err
	}
	res.set("peak_rss_mb", rss)
	if !trace {
		return nil
	}

	// Per layer: counts per committed transaction, unit costs, and how
	// much of the SBD - baseline gap counts x unit costs explain.
	res.set("benchmark.trace_overhead_pct", 100*(geomean(tracedOver)-1))
	var all stm.StatsSnapshot
	for _, c := range counts {
		all = addStats(all, c)
	}
	txns := float64(all.Commits)
	res.set("stm.acquire_per_txn", float64(all.Acquire)/txns)
	res.set("stm.check_owned_per_txn", float64(all.CheckOwned)/txns)
	res.set("stm.check_new_per_txn", float64(all.CheckNew)/txns)
	res.set("stm.init_per_txn", float64(all.Init)/txns)
	res.set("stm.undo_per_txn", float64(all.UndoEntries)/txns)
	u := probeUnitCosts(res)
	explained := float64(all.Commits)*u.beginCommit +
		float64(all.Acquire)*u.acquireRead +
		float64(all.CheckOwned)*u.checkOwned +
		float64(all.CheckNew)*u.checkNew +
		float64(all.InvisReads)*u.invisRead +
		float64(all.BatchWords)*u.batch4/4
	res.set("stm.ledger_cover_pct", 100*ratio(explained, gapNs))
	path, err := writeTrace(cfg.outDir, "dacapo-seq", []*tracer{tr})
	if err != nil {
		return err
	}
	res.constant("trace_file", path)
	return nil
}

// addStats adds the counters of b that the benchmark reports to a.
func addStats(a, b stm.StatsSnapshot) stm.StatsSnapshot {
	a.Init += b.Init
	a.CheckNew += b.CheckNew
	a.CheckOwned += b.CheckOwned
	a.Acquire += b.Acquire
	a.Commits += b.Commits
	a.UndoEntries += b.UndoEntries
	a.InvisReads += b.InvisReads
	a.BatchWords += b.BatchWords
	return a
}
