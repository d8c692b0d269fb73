package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func schedule(rate float64, seed int64, n int) []time.Duration {
	p := newPacer(rate, seed)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = p.next()
	}
	return out
}

func TestPacerScheduleIsPureFunctionOfRateAndSeed(t *testing.T) {
	a, b := schedule(6000, 42, 5000), schedule(6000, 42, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same rate and seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(6000, 43, 5000)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if reflect.DeepEqual(a, schedule(7000, 42, 5000)) {
		t.Fatal("different rates gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d at %v is before arrival %d at %v", i, a[i], i-1, a[i-1])
		}
	}
	// 5000 arrivals at 6000/s take about 5/6 s; Poisson noise is ~1.4%.
	if got, want := a[len(a)-1].Seconds(), 5000.0/6000; got < 0.9*want || got > 1.1*want {
		t.Fatalf("5000 arrivals at 6000/s end at %.3fs, want about %.3fs", got, want)
	}
}

func TestHighestQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999}, {5000000, 0.9999},
	} {
		if got := highestQuantile(c.n); got != c.want {
			t.Errorf("highestQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 100}, {0.05, 10}, {1, 100}} {
		if got := quantile(v, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := geomean([]float64{2, 8}); got < 3.999 || got > 4.001 {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a failed cell = %v, want 0", got)
	}
}

func TestSelfTimeSubtractsNestedAndAdjacentChildren(t *testing.T) {
	kind := newSpanKind("test.kind")
	// request [0,100) has adjacent children [10,30) and [30,60);
	// the second child has a nested child [40,50).
	spans := []span{
		{kind: kind, parent: -1, start: 0, end: 100},
		{kind: kind, parent: 0, start: 10, end: 30},
		{kind: kind, parent: 0, start: 30, end: 60},
		{kind: kind, parent: 2, start: 40, end: 50},
	}
	if got, want := selfTimes(spans), []int64{50, 20, 20, 10}; !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNestsSpansAndUnwindsAReplay(t *testing.T) {
	section, inner, other := newSpanKind("test.section"), newSpanKind("test.inner"), newSpanKind("test.other")
	tr, err := newTracer(0, time.Now(), 16)
	if err != nil {
		t.Fatal(err)
	}
	tr.begin(section)
	tr.begin(inner)
	tr.begin(other) // the attempt aborts here: inner and other stay open
	tr.unwindTo(section, section)
	tr.begin(inner)
	tr.end()
	tr.end() // section
	tr.nextRequest()
	tr.begin(section)
	tr.end()
	if len(tr.open) != 0 {
		t.Fatalf("%d spans still open", len(tr.open))
	}
	wantParents := []int32{-1, 0, 1, 0, -1}
	wantReqs := []uint32{0, 0, 0, 0, 1}
	for i, s := range tr.spans {
		if s.parent != wantParents[i] || s.req != wantReqs[i] || s.end < s.start {
			t.Errorf("span %d = %+v, want parent %d req %d and end >= start", i, s, wantParents[i], wantReqs[i])
		}
	}
	var off *tracer // tracing off: every call is a no-op
	off.begin(section)
	off.unwindTo(section, section)
	off.end()
	off.nextRequest()
}

func TestPerRequestSumsByRequestBelowLimit(t *testing.T) {
	a, b := newSpanKind("test.a"), newSpanKind("test.b")
	spans := []span{
		{kind: a, req: 0}, {kind: b, req: 0}, {kind: a, req: 0},
		{kind: a, req: 1}, {kind: a, req: 2},
	}
	values := []int64{5, 100, 7, 11, 13}
	if got, want := perRequest(spans, values, 2, a), []float64{12, 11}; !reflect.DeepEqual(got, want) {
		t.Fatalf("perRequest = %v, want %v", got, want)
	}
	if got := countKind(spans, 2, a); got != 3 {
		t.Fatalf("countKind = %d, want 3", got)
	}
}

// The script below is small enough to work out by hand: item 3 costs 4
// and item 10 costs 2 (price is item%9+1).
func TestTallyAgainstHandComputedScript(t *testing.T) {
	tl := newTally()
	steps := []struct {
		r              request
		prefix, suffix string
	}{
		{request{op: opCheckout}, "empty cart\n", ""},
		{request{op: opAdd, item: 3, qty: 2}, "cart 1 lines\n", ""},
		{request{op: opAdd, item: 10, qty: 1}, "cart 2 lines\n", ""},
		{request{op: opAdd, item: 3, qty: 3}, "cart 2 lines\n", ""},
		{request{op: opBrowse, item: 5}, "", ""},
		{request{op: opCheckout}, "order ", " total 22 lines 2\n"}, // 5*4 + 1*2
		{request{op: opCheckout}, "empty cart\n", ""},
		{request{op: opAdd, item: 10, qty: 2}, "cart 1 lines\n", ""},
		{request{op: opCheckout}, "order ", " total 4 lines 1\n"},
		{request{op: opAdd, item: 0, qty: 1}, "cart 1 lines\n", ""}, // never checked out: not sold
	}
	for i, s := range steps {
		if p, x := tl.expect(s.r); p != s.prefix || x != s.suffix {
			t.Fatalf("step %d: expect = %q, %q; want %q, %q", i, p, x, s.prefix, s.suffix)
		}
	}
	if tl.orders != 2 || tl.sold[3] != 5 || tl.sold[10] != 3 || tl.sold[0] != 0 {
		t.Fatalf("orders %d sold[3] %d sold[10] %d sold[0] %d, want 2 5 3 0", tl.orders, tl.sold[3], tl.sold[10], tl.sold[0])
	}

	available := make([]int64, shopItems)
	sold := make([]int64, shopItems)
	for i := range available {
		available[i] = shopStock
	}
	available[3], sold[3] = shopStock-5, 5
	available[10], sold[10] = shopStock-3, 3
	if bad := stockMismatches(available, sold, []*tally{tl, newTally()}); len(bad) != 0 {
		t.Fatalf("correct stock reported wrong: %v", bad)
	}
	// Planted faults: a decrement the server skipped, a sale nobody made.
	available[3]++
	if bad := stockMismatches(available, sold, []*tally{tl}); len(bad) != 1 {
		t.Fatalf("skipped decrement: %d mismatches, want 1: %v", len(bad), bad)
	}
	available[3]--
	available[10], sold[10] = shopStock-4, 4
	if bad := stockMismatches(available, sold, []*tally{tl}); len(bad) != 1 {
		t.Fatalf("extra sale: %d mismatches, want 1: %v", len(bad), bad)
	}
}

func TestCheckBody(t *testing.T) {
	for _, c := range []struct {
		body, prefix, suffix string
		want                 bool
	}{
		{"cart 2 lines\n", "cart 2 lines\n", "", true},
		{"cart 3 lines\n", "cart 2 lines\n", "", false},
		{"order 17 total 22 lines 2\n", "order ", " total 22 lines 2\n", true},
		{"order 17 total 23 lines 2\n", "order ", " total 22 lines 2\n", false},
		{"order  total 22 lines 2\n", "order ", " total 22 lines 2\n", false},
		{"order x total 22 lines 2\n", "order ", " total 22 lines 2\n", false},
		{"<html>", "", "", true},
		{"", "", "", false},
	} {
		if got := checkBody([]byte(c.body), c.prefix, c.suffix); got != c.want {
			t.Errorf("checkBody(%q, %q, %q) = %v, want %v", c.body, c.prefix, c.suffix, got, c.want)
		}
	}
}

func TestStreams(t *testing.T) {
	odd, even := checkoutStream(1), checkoutStream(2)
	for i, want := range []request{
		{op: opAdd, item: hotItemA, qty: 1}, {op: opAdd, item: hotItemB, qty: 1}, {op: opCheckout},
		{op: opAdd, item: hotItemA, qty: 1},
	} {
		if got := odd(); got != want {
			t.Errorf("odd session step %d = %+v, want %+v", i, got, want)
		}
	}
	if a, b := even(), even(); a.item != hotItemB || b.item != hotItemA {
		t.Errorf("even session adds items %d then %d, want %d then %d", a.item, b.item, hotItemB, hotItemA)
	}

	a, b := mixedStream(7), mixedStream(7)
	counts := map[opKind]int{}
	for range 20000 {
		r := a()
		if r != b() {
			t.Fatal("mixed stream is not a function of its seed")
		}
		if r.item < 0 || r.item >= shopItems || (r.op == opAdd && (r.qty < 1 || r.qty > 3)) {
			t.Fatalf("out-of-range request %+v", r)
		}
		counts[r.op]++
	}
	for op, want := range map[opKind]int{opBrowse: 14000, opAdd: 4000, opCheckout: 2000} {
		if got := counts[op]; got < want*9/10 || got > want*11/10 {
			t.Errorf("op %d: %d of 20000, want about %d", op, got, want)
		}
	}
	if got := string(request{op: opAdd, item: 3, qty: 2}.appendLine(nil, 9)); got != "GET /add?session=9&item=3&qty=2\n" {
		t.Errorf("add line = %q", got)
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the program's lists")

// benchmarkFile is BENCHMARK.json. The program's lists are the source;
// go test -update writes the file from them.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []perLayerDef `json:"per_layer"`
}

// perLayerDef is a metricDef without the bound, which per-layer metrics
// do not have.
type perLayerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func wantBenchmarkFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 25,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, perLayerDef{d.Name, d.Unit, d.Better})
	}
	return f
}

// BENCHMARK.json is the driver's copy of the metric and workload lists;
// this keeps it equal to the program's and inside the driver's limits.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	want := wantBenchmarkFile()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the program's lists; run go test -update in benchmark/")
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadDefs {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != higher && d.Better != lower) {
			t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !setup || len(endToEnd) > 16 || len(perLayer) > 128 || len(workloadDefs) < 2 || len(workloadDefs) > 8 ||
		len(data) > 64<<10 || want.RunSeconds < 1 || want.RunSeconds > 60 {
		t.Errorf("BENCHMARK.json breaks a limit of the driver's contract")
	}
}
