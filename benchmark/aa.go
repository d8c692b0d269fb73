package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runAA runs every workload twice, back to back, on this tree, each run
// a process of its own (peak memory is per process), and prints for
// every end-to-end metric and workload both values, their relative gap
// and whether the gap is inside the metric's bound. It returns the
// process exit code: 0 only if every pair passes and every run is
// correct.
func runAA(seed int64, seconds float64, serveBin, outDir string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	sets := [2]map[string]finalLine{{}, {}}
	for set := range sets {
		for _, w := range workloadNames() {
			fmt.Fprintf(os.Stderr, "aa: set %d: %s\n", set+1, w)
			cmd := exec.Command(exe, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0",
				"-serve-bin", serveBin, "-out", outDir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			line, perr := lastLine(out)
			if err != nil || perr != nil {
				fmt.Fprintf(os.Stderr, "aa: %s failed: %v %v\n%s", w, err, perr, out)
				return 1
			}
			sets[set][w] = line
		}
	}
	fmt.Printf("%-14s %-15s %14s %14s %8s %7s  %s\n", "metric", "workload", "set 1", "set 2", "gap", "bound", "")
	code := 0
	for _, d := range endToEnd {
		for _, w := range workloadNames() {
			a, b := sets[0][w].Metrics[d.Name].Value, sets[1][w].Metrics[d.Name].Value
			gap := math.Abs(a-b) / math.Min(a, b)
			verdict := "PASS"
			if !(gap <= d.Bound) {
				verdict, code = "FAIL", 1
			}
			fmt.Printf("%-14s %-15s %14.4f %14.4f %7.2f%% %6.0f%%  %s\n", d.Name, w, a, b, 100*gap, 100*d.Bound, verdict)
		}
	}
	for _, w := range workloadNames() {
		for set := range sets {
			if l := sets[set][w]; !l.Correct || l.Failed != 0 {
				fmt.Printf("%-14s %-15s set %d: correct=%v failed=%d of %d  FAIL\n", "fail_pct", w, set+1, l.Correct, l.Failed, l.Attempted)
				code = 1
			}
		}
	}
	return code
}

// lastLine parses the last line of a run's standard output.
func lastLine(out []byte) (finalLine, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var line finalLine
	err := json.Unmarshal(last, &line)
	return line, err
}
