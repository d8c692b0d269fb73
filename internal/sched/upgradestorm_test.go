package sched

import (
	"fmt"
	"testing"
)

// The upgrade storm must be deterministic end to end: the same seed
// produces the identical decision trace and coverage even though the
// run includes adaptive promotions and replayed aborts, and a
// recorded trace replays decision-for-decision. The checker asserts
// youngest-victim on every duel it observes along the way, so a
// passing run is also a fairness proof for the schedules explored.
func TestUpgradeStormDeterministic(t *testing.T) {
	for _, seed := range []uint64{5, 77, 31337} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			run := func() Result {
				res := RunScenario(ScenarioUpgradeStorm(), NewRandomPolicy(seed), testConfig())
				if res.Err != nil {
					t.Fatalf("run failed: %v\nevents:\n%v", res.Err, res.Events)
				}
				return res
			}
			r1, r2 := run(), run()
			if r1.Coverage != r2.Coverage {
				t.Fatalf("coverage diverged:\n  run1: %s\n  run2: %s", r1.Coverage, r2.Coverage)
			}
			if len(r1.Decisions) != len(r2.Decisions) {
				t.Fatalf("%d vs %d decisions", len(r1.Decisions), len(r2.Decisions))
			}
			for i := range r1.Decisions {
				if r1.Decisions[i] != r2.Decisions[i] {
					t.Fatalf("decision %d diverged: %v vs %v", i, r1.Decisions[i], r2.Decisions[i])
				}
			}

			replay := RunScenario(ScenarioUpgradeStorm(), NewReplayPolicy(r1.Decisions), testConfig())
			if replay.Err != nil {
				t.Fatalf("replay failed: %v", replay.Err)
			}
			if replay.Coverage != r1.Coverage {
				t.Fatalf("replay coverage diverged:\n  orig:   %s\n  replay: %s",
					r1.Coverage, replay.Coverage)
			}
		})
	}
}

// Across a small seed sweep the storm must actually exercise the
// machinery it was built for: dueling upgrades, adaptive promotions
// fed by the duel losses.
func TestUpgradeStormCoverage(t *testing.T) {
	var total Coverage
	for seed := uint64(0); seed < 6; seed++ {
		res := RunScenario(ScenarioUpgradeStorm(), NewRandomPolicy(seed), testConfig())
		if res.Err != nil {
			t.Fatalf("seed %d: %v", seed, res.Err)
		}
		total.Add(res.Coverage)
	}
	if total.Duels == 0 {
		t.Fatalf("no dueling upgrade observed: %s", total)
	}
	if total.Promotions == 0 {
		t.Fatalf("no adaptive promotion observed (duel losses did not set the hint): %s", total)
	}
	if total.Aborts == 0 || total.Commits == 0 {
		t.Fatalf("storm ran without aborts or commits: %s", total)
	}
}
