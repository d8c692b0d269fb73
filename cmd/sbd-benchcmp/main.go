// sbd-benchcmp compares two `go test -bench` output files the way
// benchstat does, with no dependency outside the stdlib (this module
// vendors nothing). Each benchmark's ns/op is averaged across its
// -count repetitions in each file and the relative delta is printed,
// old to new, followed by a geometric-mean summary row over the
// benchmarks present in both files.
//
// The comparison is informational by default: shared CI runners are too
// noisy to gate a merge on throughput numbers. The one exception is the
// uncontended fast path, whose cost the paper's whole design defends —
// benchmarks matching -gate (and present in both files) fail the run
// when their mean ns/op regresses by more than -threshold percent.
//
// Usage:
//
//	sbd-benchcmp [-gate regexp] [-threshold pct] [-markdown] old.txt new.txt
//
// -markdown renders the comparison as a GitHub-flavored table, suitable
// for appending to a CI step summary.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// sample is the accumulated ns/op of one benchmark in one file.
type sample struct {
	sum float64
	n   int
}

func (s sample) mean() float64 { return s.sum / float64(s.n) }

// waitUnits are the slot-lease / transaction-ID wait, invisible-read,
// and compiler-fast-path counters some benchmarks report via
// b.ReportMetric. Their deltas are printed as extra rows, informational
// only — counters are too workload-shaped to gate on, but a slot-wait
// count appearing where there was none flags a concurrency-ceiling
// change, a validation abort count swelling flags misplaced optimism,
// and a batch or intent count collapsing flags a compiler pass that
// silently stopped firing, none of which an ns/op column would show.
var waitUnits = []string{
	"slotwaits/run", "invisreads/run", "valaborts/run",
	"batches/run", "batchwords/run", "intenthints/run",
}

// parseFile extracts "Benchmark<Name>[-P] <iters> <value> ns/op ..."
// lines. Repetitions of the same name accumulate. The second map holds
// the wait-counter metrics, keyed "<name> <unit>".
func parseFile(path string) (map[string]sample, map[string]sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	out := map[string]sample{}
	waits := map[string]sample{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		// Walk the value/unit pairs; custom -benchtime metrics may precede
		// or follow ns/op.
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; {
			case unit == "ns/op":
				s := out[name]
				s.sum += v
				s.n++
				out[name] = s
			case slices.Contains(waitUnits, unit):
				key := name + " " + unit
				s := waits[key]
				s.sum += v
				s.n++
				waits[key] = s
			}
		}
	}
	return out, waits, sc.Err()
}

// waitRows renders the wait-counter comparisons, new file's key order.
func waitRows(old, cur map[string]sample) []row {
	keys := make([]string, 0, len(cur))
	for key := range cur {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var rows []row
	for _, key := range keys {
		ns := cur[key]
		r := row{name: key, oldNs: "-", newNs: fmt.Sprintf("%.1f", ns.mean()), delta: "new"}
		if os_, ok := old[key]; ok {
			r.oldNs = fmt.Sprintf("%.1f", os_.mean())
			switch {
			case os_.mean() != 0:
				r.delta = fmt.Sprintf("%+.1f%%", (ns.mean()-os_.mean())/os_.mean()*100)
			case ns.mean() == 0:
				r.delta = "+0.0%"
			default:
				r.delta = "was 0"
			}
		}
		rows = append(rows, r)
	}
	return rows
}

// row is one rendered comparison line.
type row struct {
	name  string
	oldNs string
	newNs string
	delta string
	mark  string
}

// threadsRe matches one cell of a thread-scaling benchmark family:
// "<family>/threads=<N>" plus the -GOMAXPROCS suffix go test appends.
var threadsRe = regexp.MustCompile(`^(.+)/threads=(\d+)(-\d+)?$`)

// scalingRows derives a per-family scaling ratio — throughput at the
// highest thread count over throughput at the lowest (ns/op is inverse
// throughput, so the ratio is ns/op@min ÷ ns/op@max) — for every
// benchmark family with cells at two or more thread counts. A mix whose
// absolute numbers move with runner noise tends to keep its shape, so a
// drop here is a scaling regression even when every delta column is
// green; the rows are informational and never gated.
func scalingRows(old, cur map[string]sample) []row {
	type cells struct{ minT, maxT int }
	fams := map[string]*cells{}
	at := func(m map[string]sample, fam string, t int) (float64, bool) {
		for name, s := range m {
			if sub := threadsRe.FindStringSubmatch(name); sub != nil && sub[1] == fam {
				if n, _ := strconv.Atoi(sub[2]); n == t {
					return s.mean(), true
				}
			}
		}
		return 0, false
	}
	for name := range cur {
		sub := threadsRe.FindStringSubmatch(name)
		if sub == nil {
			continue
		}
		t, _ := strconv.Atoi(sub[2])
		c := fams[sub[1]]
		if c == nil {
			c = &cells{minT: t, maxT: t}
			fams[sub[1]] = c
		}
		if t < c.minT {
			c.minT = t
		}
		if t > c.maxT {
			c.maxT = t
		}
	}
	names := make([]string, 0, len(fams))
	for fam := range fams {
		names = append(names, fam)
	}
	sort.Strings(names)
	var rows []row
	for _, fam := range names {
		c := fams[fam]
		if c.minT == c.maxT {
			continue
		}
		ratio := func(m map[string]sample) (float64, bool) {
			lo, okLo := at(m, fam, c.minT)
			hi, okHi := at(m, fam, c.maxT)
			if !okLo || !okHi || hi == 0 {
				return 0, false
			}
			return lo / hi, true
		}
		label := fmt.Sprintf("%s scaling @%d/@%d", fam, c.maxT, c.minT)
		oldR, okOld := ratio(old)
		newR, okNew := ratio(cur)
		r := row{name: label, oldNs: "-", newNs: "-", delta: "-"}
		if okOld {
			r.oldNs = fmt.Sprintf("%.2fx", oldR)
		}
		if okNew {
			r.newNs = fmt.Sprintf("%.2fx", newR)
		}
		if okOld && okNew && oldR > 0 {
			r.delta = fmt.Sprintf("%+.1f%%", (newR-oldR)/oldR*100)
		}
		rows = append(rows, r)
	}
	return rows
}

func main() {
	gate := flag.String("gate", "Table6AcqRls", "regexp of benchmark names whose regression fails the run")
	threshold := flag.Float64("threshold", 5, "gated regression threshold in percent")
	markdown := flag.Bool("markdown", false, "render as a GitHub-flavored markdown table")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: sbd-benchcmp [-gate regexp] [-threshold pct] [-markdown] old.txt new.txt")
		os.Exit(2)
	}
	gateRe, err := regexp.Compile(*gate)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbd-benchcmp: bad -gate:", err)
		os.Exit(2)
	}
	old, oldWaits, err := parseFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbd-benchcmp:", err)
		os.Exit(2)
	}
	cur, curWaits, err := parseFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbd-benchcmp:", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)

	var rows []row
	var failures []string
	// Geomean over ln(new/old) of benchmarks present in both files:
	// the standard summary for ratio-of-means comparisons (benchstat's
	// "geomean" row). Negative is faster.
	var logSum float64
	var logN int
	for _, name := range names {
		ns := cur[name]
		os_, ok := old[name]
		if !ok {
			rows = append(rows, row{name: name, oldNs: "-", newNs: fmt.Sprintf("%.1f", ns.mean()), delta: "new"})
			continue
		}
		delta := (ns.mean() - os_.mean()) / os_.mean() * 100
		logSum += math.Log(ns.mean() / os_.mean())
		logN++
		mark := ""
		if gateRe.MatchString(name) {
			mark = "[gated]"
			if delta > *threshold {
				mark = "[FAIL]"
				failures = append(failures, fmt.Sprintf("%s: %.1f%% > %.1f%%", name, delta, *threshold))
			}
		}
		rows = append(rows, row{
			name:  name,
			oldNs: fmt.Sprintf("%.1f", os_.mean()),
			newNs: fmt.Sprintf("%.1f", ns.mean()),
			delta: fmt.Sprintf("%+.1f%%", delta),
			mark:  mark,
		})
	}
	var gone []string
	for name := range old {
		if _, ok := cur[name]; !ok {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		rows = append(rows, row{name: name, oldNs: fmt.Sprintf("%.1f", old[name].mean()), newNs: "-", delta: "gone"})
	}
	if logN > 0 {
		gm := (math.Exp(logSum/float64(logN)) - 1) * 100
		rows = append(rows, row{name: "geomean", oldNs: "", newNs: "", delta: fmt.Sprintf("%+.1f%%", gm)})
	}
	rows = append(rows, scalingRows(old, cur)...)
	rows = append(rows, waitRows(oldWaits, curWaits)...)

	if *markdown {
		fmt.Println("| name | old ns/op | new ns/op | delta | |")
		fmt.Println("|---|---:|---:|---:|---|")
		for _, r := range rows {
			fmt.Printf("| %s | %s | %s | %s | %s |\n", r.name, r.oldNs, r.newNs, r.delta, r.mark)
		}
	} else {
		w := len("name")
		for _, r := range rows {
			if len(r.name) > w {
				w = len(r.name)
			}
		}
		fmt.Printf("%-*s  %12s  %12s  %8s\n", w, "name", "old ns/op", "new ns/op", "delta")
		for _, r := range rows {
			mark := r.mark
			if mark != "" {
				mark = "  " + mark
			}
			fmt.Printf("%-*s  %12s  %12s  %8s%s\n", w, r.name, r.oldNs, r.newNs, r.delta, mark)
		}
	}

	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "\nsbd-benchcmp: fast-path regression over %.1f%%:\n", *threshold)
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		os.Exit(1)
	}
}
