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
	"io"
	"math"
	"os"
	"regexp"
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

// parseFile extracts "Benchmark<Name>[-P] <iters> <value> ns/op ..."
// lines. Repetitions of the same name accumulate.
func parseFile(path string) (map[string]sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]sample{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		// Walk the value/unit pairs; custom b.ReportMetric metrics may
		// precede or follow ns/op.
		for i := 2; i+1 < len(fields); i++ {
			if v, err := strconv.ParseFloat(fields[i], 64); err == nil && fields[i+1] == "ns/op" {
				s := out[name]
				s.sum += v
				s.n++
				out[name] = s
			}
		}
	}
	return out, sc.Err()
}

// row is one rendered comparison line.
type row struct {
	name  string
	oldNs string
	newNs string
	delta string
	mark  string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit status as values: 0 on success,
// 1 on a gated regression, 2 on a usage or input error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sbd-benchcmp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	gate := fs.String("gate", "Table6AcqRls", "regexp of benchmark names whose regression fails the run")
	threshold := fs.Float64("threshold", 5, "gated regression threshold in percent")
	markdown := fs.Bool("markdown", false, "render as a GitHub-flavored markdown table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: sbd-benchcmp [-gate regexp] [-threshold pct] [-markdown] old.txt new.txt")
		return 2
	}
	gateRe, err := regexp.Compile(*gate)
	if err != nil {
		fmt.Fprintln(stderr, "sbd-benchcmp: bad -gate:", err)
		return 2
	}
	old, err := parseFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "sbd-benchcmp:", err)
		return 2
	}
	cur, err := parseFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "sbd-benchcmp:", err)
		return 2
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

	if *markdown {
		fmt.Fprintln(stdout, "| name | old ns/op | new ns/op | delta | |")
		fmt.Fprintln(stdout, "|---|---:|---:|---:|---|")
		for _, r := range rows {
			fmt.Fprintf(stdout, "| %s | %s | %s | %s | %s |\n", r.name, r.oldNs, r.newNs, r.delta, r.mark)
		}
	} else {
		w := len("name")
		for _, r := range rows {
			if len(r.name) > w {
				w = len(r.name)
			}
		}
		fmt.Fprintf(stdout, "%-*s  %12s  %12s  %8s\n", w, "name", "old ns/op", "new ns/op", "delta")
		for _, r := range rows {
			mark := r.mark
			if mark != "" {
				mark = "  " + mark
			}
			fmt.Fprintf(stdout, "%-*s  %12s  %12s  %8s%s\n", w, r.name, r.oldNs, r.newNs, r.delta, mark)
		}
	}

	if len(failures) > 0 {
		fmt.Fprintf(stderr, "\nsbd-benchcmp: fast-path regression over %.1f%%:\n", *threshold)
		for _, f := range failures {
			fmt.Fprintln(stderr, "  "+f)
		}
		return 1
	}
	return 0
}
