package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// A flag set that selects nothing to measure is a usage error (exit 2),
// not a panic and not a silent exit 0; a one-cell run still works.
func TestEmptySelectionIsUsageError(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "sbd-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-table=figure7", "-threads=x"},
		{"-threads=0,-2"},
		{"-bench=nosuch"},
		{"-table=10"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: err %v, want exit status 2\n%s", args, err, out)
		}
		if !strings.Contains(string(out), "Usage of") || strings.Contains(string(out), "panic") {
			t.Errorf("%v: want a usage message, got:\n%s", args, out)
		}
	}
	out, err := exec.Command(bin, "-table=9", "-bench=h2", "-threads=1", "-scale=1",
		"-window=2", "-maxiters=2", "-topsites=0").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "Table 9 — h2") {
		t.Errorf("one-cell run: err %v\n%s", err, out)
	}
}

// Table 5 is a static inventory: it prints byte for byte what it always
// has.
func TestTable5Golden(t *testing.T) {
	want, err := os.ReadFile("testdata/table5.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	table5(&got, workloads.All())
	if got.String() != string(want) {
		t.Fatalf("Table 5 drifted from testdata/table5.golden:\n%s", got.String())
	}
}

// block returns the table that follows title in text: its header line
// and its rows, up to the next blank line.
func block(t *testing.T, text, title string) (header string, rows []string) {
	t.Helper()
	_, rest, ok := strings.Cut(text, title+"\n")
	if !ok {
		t.Fatalf("missing %q in:\n%s", title, text)
	}
	rest = strings.TrimLeft(rest, "\n")
	rest, _, _ = strings.Cut(rest, "\n\n")
	lines := strings.Split(strings.TrimRight(rest, "\n"), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[1], "---") {
		t.Fatalf("%q is not followed by a table:\n%s", title, rest)
	}
	return lines[0], lines[2:]
}

// checkRows fails unless rows hold exactly one row per workload, in
// order.
func checkRows(t *testing.T, table string, rows []string) {
	t.Helper()
	ws := workloads.All()
	if len(rows) != len(ws) {
		t.Fatalf("%s: %d rows for %d workloads:\n%s", table, len(rows), len(ws), strings.Join(rows, "\n"))
	}
	for i, w := range ws {
		if !strings.HasPrefix(rows[i], w.Name+" ") {
			t.Errorf("%s row %d = %q, want workload %s", table, i, rows[i], w.Name)
		}
	}
}

func TestTables678(t *testing.T) {
	var out bytes.Buffer
	table6(&out, 1000, 1)
	header, rows := block(t, out.String(), "Table 6: microbenchmark, 1000 operations per cell (median of 1)")
	if !strings.HasPrefix(header, "Effect       Read/Rand") || !strings.Contains(header, "Write/Seq") {
		t.Errorf("Table 6 header = %q", header)
	}
	if len(rows) != len(effectNames) {
		t.Fatalf("Table 6 has %d rows, want %d", len(rows), len(effectNames))
	}
	for i, name := range effectNames {
		if !strings.HasPrefix(rows[i], name) {
			t.Errorf("Table 6 row %d = %q, want %s", i, rows[i], name)
		}
	}

	var current atomic.Pointer[core.Runtime]
	runs := singleRuns(workloads.All(), 1, &current)
	out.Reset()
	table7(&out, runs)
	header, rows = block(t, out.String(), "Table 7: locking operations per second (single-threaded run)")
	if !strings.HasPrefix(header, "Benchmark  Init/s") || !strings.Contains(header, "Acq/s") {
		t.Errorf("Table 7 header = %q", header)
	}
	checkRows(t, "Table 7", rows)
	out.Reset()
	table8(&out, runs)
	header, rows = block(t, out.String(), "Table 8: transaction memory overhead (one-thread run, luindex at its fixed two threads; totals)")
	if !strings.HasPrefix(header, "Benchmark  Locks") || !strings.Contains(header, "Txns") {
		t.Errorf("Table 8 header = %q", header)
	}
	checkRows(t, "Table 8", rows)
}

// TestSweep runs the Table 9 sweep at minimal settings: every cell's
// variants agree (sweep fails otherwise), the harness times both, and
// Table 9 and Figure 7 print one block per workload from the same cells.
func TestSweep(t *testing.T) {
	var current atomic.Pointer[core.Runtime]
	cfg := harness.Config{Window: 2, MaxCoV: 1.0, MaxIters: 2}
	ss, err := sweep(cfg, workloads.All(), 1, []int{1, 2}, &current)
	if err != nil {
		t.Fatal(err)
	}
	var t9, profiled, f7 bytes.Buffer
	table9(&t9, ss, 0)
	table9(&profiled, ss, 3)
	figure7(&f7, ss)
	if !strings.Contains(t9.String(), "\nAt 1 thread (the §5.2 sequential overhead): ") {
		t.Errorf("Table 9 lacks the §5.2 sequential-overhead line:\n%s", t9.String())
	}
	if !strings.Contains(profiled.String(), "Contention profile — tomcat (last measured run, top 3 of ") {
		t.Errorf("-topsites printed no contention profile:\n%s", profiled.String())
	}
	for _, s := range ss {
		s := s
		t.Run(s.w.Name, func(t *testing.T) {
			want := 2
			if s.w.FixedThreads > 0 {
				want = 1
			}
			if len(s.cells) != want {
				t.Fatalf("%d cells, want %d", len(s.cells), want)
			}
			for _, c := range s.cells {
				if c.base <= 0 || c.sbd <= 0 {
					t.Fatal("harness produced no timing")
				}
				if harness.OverheadPercent(c.base, c.sbd) < -95 {
					t.Fatal("implausible overhead; measurement broken")
				}
			}
			header, rows := block(t, t9.String(), "Table 9 — "+s.w.Name)
			if !strings.HasPrefix(header, "Thr  Base") || len(rows) != want {
				t.Errorf("Table 9 block: header %q, %d rows, want %d", header, len(rows), want)
			}
			if s.w.FixedThreads > 0 {
				if strings.Contains(f7.String(), s.w.Name) {
					t.Errorf("Figure 7 includes %s, which the paper excludes", s.w.Name)
				}
				return
			}
			header, rows = block(t, f7.String(), "Figure 7 — "+s.w.Name+" (speedup over single-threaded baseline)")
			if !strings.HasPrefix(header, "Threads  Baseline  SBD") || len(rows) != want ||
				!strings.HasPrefix(rows[0], "1        1.00x") {
				t.Errorf("Figure 7 block: header %q, rows %q", header, rows)
			}
		})
	}
}
