package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchOutput writes a synthetic `go test -bench` output: count
// repetitions of each named benchmark at the given ns/op, framed by the
// goos/pkg/PASS lines the parser must skip.
func benchOutput(t *testing.T, nsPerOp map[string]float64) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: repro\n")
	for name, ns := range nsPerOp {
		for rep := 0; rep < 3; rep++ {
			// A custom metric before ns/op must not be mistaken for it.
			fmt.Fprintf(&b, "Benchmark%s-2   \t 1000000\t 7.000 extra/op\t %.2f ns/op\t 0 B/op\n", name, ns)
		}
	}
	b.WriteString("PASS\nok  \trepro\t1.0s\n")
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGate(t *testing.T) {
	base := benchOutput(t, map[string]float64{
		"Table6AcqRlsRead": 100, "Table6AcqRlsWrite": 200, "OnlyInBase": 50,
	})
	for _, tc := range []struct {
		name     string
		readNs   float64
		wantExit int
		wantMark string
	}{
		{"planted +8% on the gated fast path fails", 108, 1, "[FAIL]"},
		{"+2% stays under the 5% threshold", 102, 0, "[gated]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			head := benchOutput(t, map[string]float64{
				"Table6AcqRlsRead": tc.readNs, "Table6AcqRlsWrite": 200, "OnlyInHead": 60,
			})
			var text, md, stderr bytes.Buffer
			if got := run([]string{"-gate", "Table6AcqRls", "-threshold", "5", base, head}, &text, &stderr); got != tc.wantExit {
				t.Fatalf("exit %d, want %d\n%s%s", got, tc.wantExit, text.String(), stderr.String())
			}
			if got := run([]string{"-markdown", base, head}, &md, &stderr); got != tc.wantExit {
				t.Fatalf("-markdown exit %d, want %d", got, tc.wantExit)
			}
			delta := fmt.Sprintf("%+.1f%%", tc.readNs-100)
			// Every row of the text table appears in the markdown table with
			// the same cells; one-sided benchmarks are rows, not crashes.
			for _, cells := range [][]string{
				{"Table6AcqRlsRead-2", "100.0", fmt.Sprintf("%.1f", tc.readNs), delta, tc.wantMark},
				{"Table6AcqRlsWrite-2", "200.0", "200.0", "+0.0%", "[gated]"},
				{"OnlyInHead-2", "-", "60.0", "new"},
				{"OnlyInBase-2", "50.0", "-", "gone"},
				{"geomean"},
			} {
				if !hasRow(text.String(), cells) {
					t.Errorf("text output has no row %q:\n%s", cells, text.String())
				}
				if !hasRow(strings.ReplaceAll(md.String(), "|", " "), cells) {
					t.Errorf("markdown output has no row %q:\n%s", cells, md.String())
				}
			}
			if tc.wantExit == 1 && !strings.Contains(stderr.String(), "Table6AcqRlsRead-2: 8.0% > 5.0%") {
				t.Errorf("stderr does not name the regression:\n%s", stderr.String())
			}
		})
	}
}

// hasRow reports whether some line of out consists of a row starting
// with the given cells, whitespace-separated.
func hasRow(out string, cells []string) bool {
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= len(cells) && strings.Join(fields[:len(cells)], " ") == strings.Join(cells, " ") {
			return true
		}
	}
	return false
}

func TestUsageErrors(t *testing.T) {
	var out, stderr bytes.Buffer
	if got := run([]string{"only-one.txt"}, &out, &stderr); got != 2 {
		t.Errorf("one argument: exit %d, want 2", got)
	}
	if got := run([]string{"missing-a.txt", "missing-b.txt"}, &out, &stderr); got != 2 {
		t.Errorf("unreadable input: exit %d, want 2", got)
	}
}
