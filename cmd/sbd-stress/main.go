// Command sbd-stress runs the deterministic schedule-exploration stress
// harness (internal/sched) against the STM runtime.
//
// Each round runs the scenario suite — directed deadlock, dueling
// write-upgrade, queue handoff, ID-pool exhaustion, SBD-layer atomic
// sections, and a randomized transfer workload — under a seeded
// schedule with fault injection (forced CAS failures, delayed grants,
// spurious wake-ups), checking the runtime's structural invariants and
// the protocol's fairness and victim-selection rules throughout.
//
// Runs are reproducible: the same -seed explores the same schedules.
// On a failure the driver re-runs the failing scenario under schedule
// replay to shrink the decision trace to the minimal set of scheduling
// choices that still reproduce the violation, prints it, and writes a
// machine-readable artifact (for CI upload) before exiting non-zero.
//
// This substitutes for the paper's 64-hyperthread stress testbed: a
// single-core container cannot provoke these interleavings with real
// parallelism, so the harness enumerates them instead.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/sched"
)

var (
	rounds   = flag.Int("rounds", 20, "number of stress rounds (each runs the full scenario suite)")
	seed     = flag.Uint64("seed", 1, "base seed; round r uses seed+r")
	maxSteps = flag.Int("maxsteps", 200000, "per-run scheduling decision budget (livelock backstop)")
	timeout  = flag.Duration("timeout", 30*time.Second, "per-run wall-clock watchdog")
	shrinkN  = flag.Int("shrink", 200, "replay budget for shrinking a failing schedule (0 disables)")
	artifact = flag.String("artifact", "", "write failure report to this file (for CI artifact upload)")
	verbose  = flag.Bool("v", false, "per-round coverage output")
)

func main() {
	flag.Parse()
	if *rounds < 1 {
		// Zero rounds would print "all invariants held" having checked
		// none: a typo in CI must not read as a green stress run.
		fmt.Fprintf(os.Stderr, "sbd-stress: -rounds=%d: need at least one round\n", *rounds)
		flag.Usage()
		os.Exit(2)
	}
	cfg := sched.Config{MaxSteps: *maxSteps, Timeout: *timeout}

	var total sched.Coverage
	start := time.Now()
	for r := 0; r < *rounds; r++ {
		roundSeed := *seed + uint64(r)
		results, cov, err := sched.RunRound(roundSeed, cfg)
		total.Add(cov)
		if *verbose {
			fmt.Printf("round %3d seed=%d: %s\n", r, roundSeed, cov)
		}
		if err != nil {
			fail(roundSeed, results, cfg, err)
		}
	}
	fmt.Printf("sbd-stress: %d rounds in %v, all invariants held\n", *rounds, time.Since(start).Round(time.Millisecond))
	fmt.Printf("coverage: %s\n", total)
}

// fail reports a failing round: the scenario, its seed, the violation,
// the shrunk schedule that reproduces it, and the recent event log —
// then writes the artifact and exits 1.
func fail(roundSeed uint64, results []sched.Result, cfg sched.Config, err error) {
	last := results[len(results)-1]
	fmt.Fprintf(os.Stderr, "\nFAILURE: %v\n", err)
	fmt.Fprintf(os.Stderr, "reproduce with: go run ./cmd/sbd-stress -rounds=1 -seed=%d\n", roundSeed)
	fmt.Fprintf(os.Stderr, "scenario %q coverage: %s\n", last.Scenario, last.Coverage)

	report := fmt.Sprintf("scenario: %s\nround-seed: %d\nscenario-seed: %d\nerror: %v\n",
		last.Scenario, roundSeed, last.Seed, last.Err)

	shrunk := last.Decisions
	if *shrinkN > 0 && last.Err != nil {
		idx := len(results) - 1
		sc := sched.RoundScenarios(roundSeed)[idx]
		res := sched.Shrink(last.Decisions, func(dec []sched.Decision) error {
			return sched.RunScenario(sc, sched.NewReplayPolicy(dec), cfg).Err
		}, *shrinkN)
		if res.Err != nil {
			shrunk = res.Decisions
			fmt.Fprintf(os.Stderr, "shrunk schedule (%d replays): %d -> %d decisions, %d interesting\n",
				res.Runs, len(last.Decisions), len(shrunk), sched.InterestingCount(shrunk))
			report += fmt.Sprintf("shrunk-error: %v\n", res.Err)
		} else {
			fmt.Fprintf(os.Stderr, "shrinking did not reproduce the failure (flaky beyond schedule control); keeping full trace\n")
		}
	}
	fmt.Fprintf(os.Stderr, "schedule: %s\n", sched.FormatDecisions(shrunk))
	report += fmt.Sprintf("decisions: %d\nschedule: %s\n", len(shrunk), sched.FormatDecisions(shrunk))

	if len(last.Events) > 0 {
		fmt.Fprintf(os.Stderr, "recent events:\n")
		report += "events:\n"
		for _, e := range last.Events {
			fmt.Fprintf(os.Stderr, "  %s\n", e)
			report += "  " + e + "\n"
		}
	}
	if *artifact != "" {
		if werr := os.WriteFile(*artifact, []byte(report), 0o644); werr != nil {
			fmt.Fprintf(os.Stderr, "writing artifact %s: %v\n", *artifact, werr)
		} else {
			fmt.Fprintf(os.Stderr, "failure report written to %s\n", *artifact)
		}
	}
	os.Exit(1)
}
