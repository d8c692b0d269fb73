package sched

import (
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/stm"
)

// sameRun fails t unless two runs of one scenario recorded the same
// decisions and the same coverage.
func sameRun(t *testing.T, what string, a, b Result) {
	t.Helper()
	if a.Coverage != b.Coverage {
		t.Fatalf("%s: %s coverage diverged:\n  %s\n  %s", a.Scenario, what, a.Coverage, b.Coverage)
	}
	if len(a.Decisions) != len(b.Decisions) {
		t.Fatalf("%s: %s recorded %d vs %d decisions", a.Scenario, what, len(a.Decisions), len(b.Decisions))
	}
	for i := range a.Decisions {
		if a.Decisions[i] != b.Decisions[i] {
			t.Fatalf("%s: %s decision %d diverged: %v vs %v", a.Scenario, what, i, a.Decisions[i], b.Decisions[i])
		}
	}
}

// Same seed must produce the identical schedule: decision-for-decision
// equal traces, equal coverage, across independent executions.
func TestSameSeedSameSchedule(t *testing.T) {
	for _, seed := range []uint64{1, 5, 7, 42, 77, 12345, 31337} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			run := func() ([]Result, Coverage) {
				results, cov, err := RunRound(seed)
				if err != nil {
					t.Fatalf("round failed: %v", err)
				}
				return results, cov
			}
			r1, c1 := run()
			r2, c2 := run()
			if c1 != c2 {
				t.Fatalf("coverage diverged:\n  run1: %s\n  run2: %s", c1, c2)
			}
			for i := range r1 {
				sameRun(t, "rerun", r1[i], r2[i])
			}
		})
	}
}

// Different seeds should explore different schedules (statistically
// certain for the randomized transfer workload).
func TestDifferentSeedsDiffer(t *testing.T) {
	res1 := RunScenario(ScenarioTransfer(1), NewRandomPolicy(1))
	res2 := RunScenario(ScenarioTransfer(2), NewRandomPolicy(2))
	if res1.Err != nil || res2.Err != nil {
		t.Fatalf("runs failed: %v / %v", res1.Err, res2.Err)
	}
	if FormatDecisions(res1.Decisions) == FormatDecisions(res2.Decisions) {
		t.Fatalf("seeds 1 and 2 produced the identical schedule (%d decisions)", len(res1.Decisions))
	}
}

// reproducible fails t unless sc, run under a policy seed, passes the
// checker, and a second run with the same seed and a replay of the
// recorded trace both reproduce it decision for decision, with the same
// coverage. The checker asserts FIFO fairness and youngest-victim on
// every event along the way.
func reproducible(t *testing.T, sc Scenario, seed uint64) {
	t.Helper()
	run := func(pol Policy) Result {
		res := RunScenario(sc, pol)
		if res.Err != nil {
			t.Fatalf("seed %d: %v\nevents:\n%s", seed, res.Err, strings.Join(res.Events, "\n"))
		}
		return res
	}
	orig := run(NewRandomPolicy(seed))
	sameRun(t, fmt.Sprintf("seed %d rerun", seed), orig, run(NewRandomPolicy(seed)))
	sameRun(t, fmt.Sprintf("seed %d replay", seed), orig, run(NewReplayPolicy(orig.Decisions)))
}

// reproducibleSeeds runs reproducible once per seed, as subtests.
func reproducibleSeeds(t *testing.T, sc Scenario, seeds ...uint64) {
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { reproducible(t, sc, seed) })
	}
}

// Every scenario of a round is deterministic end to end.
func TestReplayReproduces(t *testing.T) {
	for _, sc := range RoundScenarios(99) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) { reproducible(t, sc, 99) })
	}
}

// The directed scenarios are also reproduced under seeds that cross
// the upgrade storm's promotions and replayed aborts, bias revocation's
// publish/verify race, and the invisible tier's stamp/validate window.
func TestUpgradeStormDeterministic(t *testing.T) {
	reproducibleSeeds(t, ScenarioUpgradeStorm(), 5, 77, 31337)
}

func TestBiasRevokeDeterministic(t *testing.T) {
	reproducibleSeeds(t, ScenarioBiasRevoke(), 5, 77, 31337)
}

func TestBiasDrainTimeoutDeterministic(t *testing.T) {
	reproducibleSeeds(t, ScenarioBiasDrainTimeout(), 5, 77, 31337)
}

func TestInvisibleValidationDeterministic(t *testing.T) {
	reproducibleSeeds(t, ScenarioInvisibleValidation(), 3, 99, 4242)
}

// coverageFloor fails t unless sc, summed over policy seeds
// 0..seeds-1, reaches floor in every coverage field, and no seed fails.
func coverageFloor(t *testing.T, sc Scenario, seeds uint64, floor Coverage) {
	t.Helper()
	var total Coverage
	for seed := uint64(0); seed < seeds; seed++ {
		res := RunScenario(sc, NewRandomPolicy(seed))
		if res.Err != nil {
			t.Fatalf("seed %d: %v\nevents:\n%s", seed, res.Err, strings.Join(res.Events, "\n"))
		}
		total.Add(res.Coverage)
	}
	got, want := reflect.ValueOf(total), reflect.ValueOf(floor)
	for i := 0; i < want.NumField(); i++ {
		if got.Field(i).Int() < want.Field(i).Int() {
			t.Errorf("%s = %d over %d seeds, want at least %d", want.Type().Field(i).Name,
				got.Field(i).Int(), seeds, want.Field(i).Int())
		}
	}
}

// Each directed scenario must keep exercising the machinery it was
// built for.
func TestCoverageFloors(t *testing.T) {
	for _, row := range []struct {
		sc    Scenario
		floor Coverage
	}{
		// Dueling upgrades, and adaptive promotions fed by the losses.
		{ScenarioUpgradeStorm(), Coverage{Deadlocks: 1, Promotions: 1, Commits: 1, Aborts: 1}},
		// Biased reader-slot grants, writer revocations, and a revoking
		// writer parked behind the readers.
		{ScenarioBiasRevoke(), Coverage{BiasGrants: 1, BiasRevokes: 1, Grants: 1, Commits: 1}},
		// The scenario's post-check allows one validation abort per run,
		// so this floor means exactly one on every seed.
		{ScenarioInvisibleValidation(), Coverage{InvisReads: 1, ValAborts: 6, Commits: 1}},
		// Opposite-order batches really contend — one queues behind the
		// other and is granted the word — while the post-check holds
		// Deadlocks at 0.
		{ScenarioBatchAcquire(), Coverage{Blocked: 1, Grants: 1, Commits: 1}},
		// A write through the bias marker whose drain times out on a
		// parked slot holder: the writer revokes, and the detector breaks
		// the cycle through the folded reader slot.
		{ScenarioBiasDrainTimeout(), Coverage{BiasRevokes: 1, Deadlocks: 1}},
	} {
		row := row
		t.Run(row.sc.Name, func(t *testing.T) { coverageFloor(t, row.sc, 6, row.floor) })
	}
}

// The inevitable duelist survives the dueling write-upgrade on every
// schedule, with the inevitable worker first or second: the scenario's
// post-check fails any run whose inevitable worker aborted. Not every
// schedule duels (one worker can finish before the other reads), but a
// 30-seed sweep that never duels means the scenario lost its teeth.
func TestInevitableDuelistAlwaysSurvives(t *testing.T) {
	for _, inevSecond := range []bool{false, true} {
		sc := ScenarioInevDuel(inevSecond)
		t.Run(sc.Name, func(t *testing.T) { coverageFloor(t, sc, 30, Coverage{Deadlocks: 1}) })
	}
}

// Every wake is announced before it is delivered: a worker that
// resumes from a park no wake event ended fails the run, and the error
// names the point it parked at.
func TestUnannouncedWakeFailsRun(t *testing.T) {
	s := New(NewRandomPolicy(1))
	p := stm.PointParked
	var resumed atomic.Bool
	err := s.Run(
		Worker{Name: "parker", Body: func() {
			s.Block(p)
			s.Unblock(p)
			resumed.Store(true)
		}},
		Worker{Name: "bystander", Body: func() {
			for !resumed.Load() {
				s.Step()
				runtime.Gosched()
			}
		}},
	)
	if err == nil || !strings.Contains(err.Error(), "unannounced wake at "+p.String()) {
		t.Fatalf("run error = %v, want an unannounced wake at %v", err, p)
	}
}

// Every round must hit the coverage floor: the directed scenarios
// guarantee at least one deadlock resolution (a dueling upgrade is one)
// and one queue handoff regardless of the seed. The harness runs the slow
// path production runs, so these rounds also win a lock by spinning and
// write through a bias marker.
func TestCoverageFloor(t *testing.T) {
	for _, seed := range []uint64{3, 1000, 424242} {
		_, cov, err := RunRound(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if cov.Deadlocks < 1 || cov.Grants < 1 || cov.Spins < 1 || cov.WriteThrus < 1 {
			t.Fatalf("seed %d: coverage floor not met: %s", seed, cov)
		}
	}
}

// Fault injection must actually fire across a modest seed sweep.
func TestFaultsAreExercised(t *testing.T) {
	var total Coverage
	for seed := uint64(0); seed < 5; seed++ {
		_, cov, err := RunRound(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		total.Add(cov)
	}
	if total.CASFails == 0 {
		t.Errorf("no forced CAS failures across 5 rounds: %s", total)
	}
}

// Shrinking must return a smaller trace that still fails.
func TestShrinkSynthetic(t *testing.T) {
	// Synthetic failure: the run "fails" iff the trace both switches to
	// goroutine 2 somewhere and fires a CAS fault somewhere after it.
	failure := errors.New("synthetic failure")
	run := func(dec []Decision) error {
		sw := -1
		for i, d := range dec {
			if d.Kind == DecSwitch && d.Target == 2 && sw < 0 {
				sw = i
			}
			if sw >= 0 && i > sw && d.Kind == DecFault && d.FKind == FaultCAS && d.Fault {
				return failure
			}
		}
		return nil
	}
	// A noisy 60-decision trace with many irrelevant non-neutral entries.
	var noisy []Decision
	for i := 0; i < 60; i++ {
		switch i % 6 {
		case 0:
			noisy = append(noisy, Decision{Kind: DecSwitch, Target: i % 4})
		case 3:
			noisy = append(noisy, Decision{Kind: DecFault, FKind: FaultCAS, Fault: false})
		case 5:
			noisy = append(noisy, Decision{Kind: DecFault, FKind: FaultCAS, Fault: i == 35})
		default:
			noisy = append(noisy, Decision{Kind: DecSwitch, Target: -1})
		}
	}
	noisy[14] = Decision{Kind: DecSwitch, Target: 2}
	if run(noisy) == nil {
		t.Fatal("synthetic trace does not fail; test is broken")
	}
	res := Shrink(noisy, run, 0)
	if res.Err == nil {
		t.Fatal("shrunk trace no longer fails")
	}
	if run(res.Decisions) == nil {
		t.Fatal("reported shrunk trace does not reproduce the failure")
	}
	if got, want := InterestingCount(res.Decisions), 2; got != want {
		t.Errorf("shrunk to %d interesting decisions, want %d: %s",
			got, want, FormatDecisions(res.Decisions))
	}
	if len(res.Decisions) >= len(noisy) {
		t.Errorf("shrink did not reduce length: %d -> %d", len(noisy), len(res.Decisions))
	}
}

// Shrinking a real failing schedule: break an invariant artificially by
// using a checker-visible impossible event stream is hard to do without
// breaking the runtime, so instead verify end-to-end that a shrunk
// replay of a real scenario still satisfies determinism (shrink of a
// passing run returns quickly with no failure).
func TestShrinkRealScheduleNoFailure(t *testing.T) {
	orig := RunScenario(ScenarioDeadlock(), NewRandomPolicy(5))
	if orig.Err != nil {
		t.Fatalf("run failed: %v", orig.Err)
	}
	res := Shrink(orig.Decisions, func(dec []Decision) error {
		return RunScenario(ScenarioDeadlock(), NewReplayPolicy(dec)).Err
	}, 40)
	if res.Err != nil {
		t.Fatalf("shrink fabricated a failure from a passing schedule: %v", res.Err)
	}
}

// The PRNG must be stable across Go versions: pin a few outputs.
func TestPRNGPinned(t *testing.T) {
	p := newPRNG(0)
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x6c45d188009454f}
	for i, w := range want {
		if got := p.next(); got != w {
			t.Fatalf("splitmix64 output %d = %#x, want %#x", i, got, w)
		}
	}
}

// A failing run reports the runtime flight recorder's tail: the deadlock
// scenario resolves its cycle, then fails a planted post-check, and its
// Result.Events hold the block and the resolution in RecordedEvent
// format.
func TestFailureCarriesRecorderTail(t *testing.T) {
	res := RunScenario(failingDeadlock(), NewRandomPolicy(1))
	if res.Err == nil || res.Coverage.Deadlocks == 0 {
		t.Fatalf("err %v with %d deadlocks, want the planted failure after a resolved cycle", res.Err, res.Coverage.Deadlocks)
	}
	for _, want := range []*regexp.Regexp{
		regexp.MustCompile(`^ *\S+ blocked +tx=\d+ ticket=\d+ lock=0x[0-9a-f]+ q=\d+( write)?( upgrader)?$`),
		regexp.MustCompile(`^ *\S+ deadlock +tx=\d+ victim=\d+ cycle=\[\d+ \d+\]$`),
	} {
		found := false
		for _, line := range res.Events {
			found = found || want.MatchString(line)
		}
		if !found {
			t.Errorf("no event matches %v:\n%s", want, strings.Join(res.Events, "\n"))
		}
	}
}

// failingDeadlock is ScenarioDeadlock with a post-check that always
// fails.
func failingDeadlock() Scenario {
	sc := ScenarioDeadlock()
	build := sc.Build
	sc.Build = func(rt *stm.Runtime, s *Scheduler) ([]Worker, func() error) {
		workers, _ := build(rt, s)
		return workers, func() error { return errors.New("planted post-check failure") }
	}
	return sc
}
