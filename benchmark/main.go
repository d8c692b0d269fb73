// Command benchmark is the repository's one benchmark: four named
// workloads over the whole stack, end-to-end metrics from runs with
// tracing off and per-layer metrics from a separate traced run. See
// README.md for every metric and workload, BENCHMARK.json for the
// contract with the driver.
//
//	benchmark --workload serve-mixed --seed 1 --seconds 25 --trace 0
//	benchmark -aa
//
// It changes nothing in the program it measures: layers are timed from
// outside, around their public calls, and counted by their public
// counters.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// config is what every workload needs to know about the run.
type config struct {
	seed     int64
	nproc    int // connections or worker threads: load is sized for the machine's cores, nothing wider
	serveBin string
	outDir   string
}

// workloadDef is one entry of BENCHMARK.json's workloads list.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"serve-mixed", "sbd-serve under 70/20/10 browse/add/checkout, open then closed loop: minihttp, txio and core do most of the work, stm's contended path and memdb writes almost none"},
	{"serve-checkout", "same server, every session loops add/add/checkout on two hot items in opposite orders: stm waits and deadlock resolution, memdb writes and the flush under held locks carry load"},
	{"dacapo-seq", "the six paper programs, baseline against SBD, one thread, in process: the uncontended stm fast path is nearly all of the gap; sockets and the contended path are idle"},
	{"stm-contend", "the eight scalebench mixes at nproc threads and at one: the contended path and the four adaptive tiers do all the work; core, txio, minihttp, memdb and shop do none"},
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	return names
}

func main() {
	workload := flag.String("workload", "", "one of "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 25, "how long to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, traced run")
	serveBin := flag.String("serve-bin", ".bench_build/bin/sbd-serve", "the commit's cmd/sbd-serve, built by run.sh")
	outDir := flag.String("out", "benchmark/out", "directory for trace and result files")
	aa := flag.Bool("aa", false, "run every workload twice on this tree and compare the two sets against the bounds")
	spanServer := flag.String("span-server", "", "internal: serve the shop with spans on or off until SIGTERM (the traced run's child process)")
	flag.Parse()

	if *spanServer != "" {
		os.Exit(spanServerMain(*spanServer == "on", *workload, *outDir))
	}

	if *aa {
		os.Exit(runAA(*seed, *seconds, *serveBin, *outDir))
	}
	cfg := config{seed: *seed, nproc: runtime.NumCPU(), serveBin: *serveBin, outDir: *outDir}
	res := newResult()
	res.constant("nproc", runtime.NumCPU())
	res.constant("gomaxprocs", runtime.GOMAXPROCS(0))
	res.constant("go_version", runtime.Version())
	res.constant("commit", commit())
	res.constant("seed", *seed)
	res.constant("seconds", *seconds)

	var err error
	switch spec, isServe := serveSpecs[*workload]; {
	case isServe && *trace == 0:
		err = runServe(spec, cfg, *seconds, false, res)
	case isServe:
		err = runServeTraced(spec, cfg, *seconds, res)
	case *workload == "dacapo-seq":
		err = runDacapo(cfg, *seconds, *trace == 1, res)
	case *workload == "stm-contend":
		err = runContend(cfg, *seconds, *trace == 1, res)
	default:
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err != nil {
		// No result line: a run that could not measure must not look like one that did.
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", *workload, err)
		os.Exit(1)
	}

	rep := res.report(*workload, *trace == 1)
	printReport(os.Stdout, rep)
	if err := writeReport(cfg.outDir, rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	line, err := json.Marshal(res.finalLine(defs))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.correct() {
		os.Exit(1)
	}
}

// commit names the tree being measured, when it is a git checkout.
func commit() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", filepath.Dir(exe), "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
