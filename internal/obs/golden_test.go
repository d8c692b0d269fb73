package obs

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/stm"
)

var updateGolden = flag.Bool("update", false, "rewrite internal/obs/testdata/*.golden from the current renderers")

// fillCounters gives every counter field of the struct behind ptr
// (uint64 counters and time.Duration accumulators, through embedded
// structs) a distinct value: the field whose name sorts k-th gets
// value(k). Ranking by name, not by position, keeps the inputs the same
// when the declaration is reordered.
func fillCounters(ptr any, value func(k int) uint64) {
	fields := map[string]reflect.Value{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, sf := v.Field(i), v.Type().Field(i)
			switch {
			case f.Kind() == reflect.Uint64, f.Type() == reflect.TypeOf(time.Duration(0)):
				fields[sf.Name] = f
			case f.Kind() == reflect.Struct && sf.Anonymous:
				walk(f)
			}
		}
	}
	walk(reflect.ValueOf(ptr).Elem())
	names := make([]string, 0, len(fields))
	for name := range fields {
		names = append(names, name)
	}
	sort.Strings(names)
	for k, name := range names {
		if f := fields[name]; f.CanUint() {
			f.SetUint(value(k))
		} else {
			f.SetInt(int64(value(k)))
		}
	}
}

// goldenInputs is the fixed snapshot the three goldens render: every
// runtime counter and every per-site counter of two sites holds a
// distinct value (large enough that the ns→seconds series exceed one
// second), one site name needs label escaping, and a recorder that has
// seen three commits is attached.
func goldenInputs() (stm.StatsSnapshot, []stm.SiteProfile, *stm.FlightRecorder) {
	var snap stm.StatsSnapshot
	fillCounters(&snap, func(k int) uint64 { return uint64(k+1) * 1000000007 })
	sites := []stm.SiteProfile{
		{Site: stm.SiteInfo{Class: `golden."cell"`, Field: "v"}, Mode: stm.ModeBiased},
		{Site: stm.SiteInfo{Class: "golden.arr", Array: true}, Mode: stm.ModeInvisible},
	}
	for r := range sites {
		fillCounters(&sites[r], func(k int) uint64 { return uint64(r+1)*1500000000 + uint64(k+1)*1001 })
	}
	rt := stm.NewRuntimeOpts(stm.Options{RecorderSize: 16, RecorderKinds: []stm.EventKind{stm.EvCommit}})
	for i := 0; i < 3; i++ {
		rt.Begin().Commit()
	}
	return snap, sites, rt.Recorder()
}

// TestGoldenSurfaces pins /metrics, /stats and /profile byte for byte.
// metrics.golden and profile.golden are the output of the hand-written
// renderers of the commit before the counters became one declaration.
// stats.golden is that commit's output with two keys (Deadlocks,
// InevWaits) moved below SlotWaitNs: /metrics and /stats listed those
// four counters in opposite orders, one declaration can follow only one,
// and a JSON object's key order carries no meaning. A counter added,
// dropped, renamed or reordered shows up here as a textual diff.
func TestGoldenSurfaces(t *testing.T) {
	snap, sites, rec := goldenInputs()
	for name, got := range map[string]string{
		"metrics.golden": Metrics(snap, sites, rec),
		"stats.golden":   StatsJSON(snap),
		"profile.golden": ProfileTable(sites),
	} {
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs from the golden (rerun with -update only for an intended surface change)\n--- got ---\n%s", name, got)
		}
	}
}
