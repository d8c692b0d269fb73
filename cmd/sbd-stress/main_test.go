package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/stm"
)

// A run that checked nothing must not report success: -rounds below one
// is a usage error (exit 2), and one round still passes.
func TestRoundsMustBePositive(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "sbd-stress")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, arg := range []string{"-rounds=0", "-rounds=-3"} {
		out, err := exec.Command(bin, arg).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: err %v, want exit status 2\n%s", arg, err, out)
		}
		if strings.Contains(string(out), "all invariants held") {
			t.Errorf("%s claims success without running a round:\n%s", arg, out)
		}
	}
	out, err := exec.Command(bin, "-rounds=1", "-seed=1").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "sbd-stress: 1 rounds in ") {
		t.Errorf("-rounds=1: err %v\n%s", err, out)
	}
}

// A round whose scenarios all passed but whose coverage fell below
// RunRound's floor reports the round's error, not the last scenario's
// nil one, and names no scenario as the failure.
func TestReportCoverageFloorFailure(t *testing.T) {
	results := []sched.Result{{Scenario: "deadlock"}, {Scenario: "batch-acquire"}}
	rep := report(7, results, errors.New("coverage floor violated: deadlocks=0"))
	for _, want := range []string{"round-seed: 7\n", "error: coverage floor violated: deadlocks=0\n", "scenario: none"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report lacks %q:\n%s", want, rep)
		}
	}
	if strings.Contains(rep, "<nil>") || strings.Contains(rep, "batch-acquire") {
		t.Errorf("report blames a scenario that passed:\n%s", rep)
	}
}

// A failing scenario's report ends with the flight recorder's tail,
// every event of the failed run on a line of its own. The deadlock
// scenario fails a planted post-check after its cycle is resolved; the
// replay of its (dropped) schedule passes, so no shrinking runs.
func TestReportPrintsRecorderTail(t *testing.T) {
	sc := sched.ScenarioDeadlock()
	build := sc.Build
	sc.Build = func(rt *stm.Runtime, s *sched.Scheduler) ([]sched.Worker, func() error) {
		workers, _ := build(rt, s)
		return workers, func() error { return errors.New("planted post-check failure") }
	}
	res := sched.RunScenario(sc, sched.NewRandomPolicy(1))
	if len(res.Events) == 0 {
		t.Fatalf("failed run (%v) carries no events", res.Err)
	}
	res.Decisions = nil
	rep := report(1, []sched.Result{res}, res.Err)
	_, tail, _ := strings.Cut(rep, "events:\n")
	for _, ev := range res.Events {
		if !strings.Contains(tail, "  "+ev+"\n") {
			t.Errorf("report lacks event %q:\n%s", ev, rep)
		}
	}
}
