// Command sbd-stress runs the deterministic schedule-exploration stress
// harness (internal/sched) against the STM runtime.
//
// Each round runs the scenario suite — directed deadlock, dueling
// write-upgrade (a two-member cycle the same detector resolves), queue
// handoff, ID-pool exhaustion, SBD-layer atomic sections, and a
// randomized transfer workload — under a seeded schedule that forces
// CAS failures, checking the runtime's structural invariants and the
// protocol's fairness and victim-selection rules throughout. Every
// state a run reaches is one production can reach.
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
	artifact = flag.String("artifact", "", "write failure report to this file (for CI artifact upload)")
	verbose  = flag.Bool("v", false, "per-round coverage output")
)

// shrinkRuns is the replay budget for shrinking a failing schedule.
const shrinkRuns = 200

func main() {
	flag.Parse()
	if *rounds < 1 {
		// Zero rounds would print "all invariants held" having checked
		// none: a typo in CI must not read as a green stress run.
		fmt.Fprintf(os.Stderr, "sbd-stress: -rounds=%d: need at least one round\n", *rounds)
		flag.Usage()
		os.Exit(2)
	}
	var total sched.Coverage
	start := time.Now()
	for r := 0; r < *rounds; r++ {
		roundSeed := *seed + uint64(r)
		results, cov, err := sched.RunRound(roundSeed)
		total.Add(cov)
		if *verbose {
			fmt.Printf("round %3d seed=%d: %s\n", r, roundSeed, cov)
		}
		if err != nil {
			fail(roundSeed, results, err)
		}
	}
	fmt.Printf("sbd-stress: %d rounds in %v, all invariants held\n", *rounds, time.Since(start).Round(time.Millisecond))
	fmt.Printf("coverage: %s\n", total)
}

// fail reports a failing round (see report), writes the artifact and
// exits 1.
func fail(roundSeed uint64, results []sched.Result, err error) {
	fmt.Fprintf(os.Stderr, "\nFAILURE: %v\n", err)
	fmt.Fprintf(os.Stderr, "reproduce with: go run ./cmd/sbd-stress -rounds=1 -seed=%d\n", roundSeed)
	rep := report(roundSeed, results, err)
	os.Stderr.WriteString(rep)
	if *artifact != "" {
		if werr := os.WriteFile(*artifact, []byte(rep), 0o644); werr != nil {
			fmt.Fprintf(os.Stderr, "writing artifact %s: %v\n", *artifact, werr)
		} else {
			fmt.Fprintf(os.Stderr, "failure report written to %s\n", *artifact)
		}
	}
	os.Exit(1)
}

// report describes a failing round: its error and seed, and, when one
// scenario failed, that scenario, the shrunk schedule that reproduces
// it and the flight recorder's tail. A round whose scenarios all passed
// failed RunRound's coverage floor, which no single scenario owns.
func report(roundSeed uint64, results []sched.Result, err error) string {
	rep := fmt.Sprintf("round-seed: %d\nerror: %v\n", roundSeed, err)
	last := results[len(results)-1]
	if last.Err == nil {
		return rep + "scenario: none (every scenario passed; the round's coverage failed its floor)\n"
	}
	rep += fmt.Sprintf("scenario: %s\nscenario-seed: %d\ncoverage: %s\n", last.Scenario, last.Seed, last.Coverage)
	sc := sched.RoundScenarios(roundSeed)[len(results)-1]
	res := sched.Shrink(last.Decisions, func(dec []sched.Decision) error {
		return sched.RunScenario(sc, sched.NewReplayPolicy(dec)).Err
	}, shrinkRuns)
	dec := last.Decisions
	if res.Err != nil {
		dec = res.Decisions
		rep += fmt.Sprintf("shrunk: %d replays, %d -> %d decisions, %d interesting\nshrunk-error: %v\n",
			res.Runs, len(last.Decisions), len(dec), sched.InterestingCount(dec), res.Err)
	} else {
		rep += "shrunk: the replays did not reproduce the failure; keeping the full trace\n"
	}
	rep += fmt.Sprintf("decisions: %d\nschedule: %s\n", len(dec), sched.FormatDecisions(dec))
	if len(last.Events) > 0 {
		rep += "events:\n"
		for _, e := range last.Events {
			rep += "  " + e + "\n"
		}
	}
	return rep
}
