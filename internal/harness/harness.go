// Package harness implements the measurement methodology of the paper's
// evaluation (§5.1), which follows Georges, Buytaert & Eeckhout,
// "Statistically Rigorous Java Performance Evaluation" (OOPSLA '07):
// per invocation, benchmark iterations repeat until the coefficient of
// variation over a trailing window falls below a threshold (steady
// state); if the threshold is never reached, the last window is used.
// The paper uses a window of 30 iterations, CoV ≤ 0.01, and a cap of 60;
// cmd/sbd-bench's defaults are scaled down so the full table sweep
// finishes in minutes, and every knob is one of its flags.
package harness

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Config controls steady-state measurement.
type Config struct {
	// Window is the number of consecutive iterations whose CoV must fall
	// below MaxCoV (paper: 30).
	Window int
	// MaxCoV is the coefficient-of-variation threshold (paper: 0.01).
	MaxCoV float64
	// MaxIters caps the iterations per invocation (paper: 60).
	MaxIters int
}

// Result summarizes one steady-state measurement.
type Result struct {
	Times      []time.Duration // all iteration times
	Iterations int             // len(Times)
	Mean       time.Duration   // mean of the accepted window
	CoV        float64         // CoV of the accepted window
	Converged  bool            // CoV threshold reached before MaxIters
}

// Measure runs fn repeatedly until steady state per cfg and returns the
// accepted window's statistics.
func Measure(cfg Config, fn func()) Result {
	if cfg.Window < 2 {
		cfg.Window = 2
	}
	if cfg.MaxIters < cfg.Window {
		cfg.MaxIters = cfg.Window
	}
	var r Result
	for len(r.Times) < cfg.MaxIters {
		start := time.Now()
		fn()
		r.Times = append(r.Times, time.Since(start))
		if len(r.Times) >= cfg.Window {
			window := r.Times[len(r.Times)-cfg.Window:]
			mean, cov := meanCoV(window)
			r.Mean, r.CoV = mean, cov
			if cov <= cfg.MaxCoV {
				r.Converged = true
				break
			}
		}
	}
	r.Iterations = len(r.Times)
	return r
}

func meanCoV(ts []time.Duration) (time.Duration, float64) {
	var sum float64
	for _, t := range ts {
		sum += float64(t)
	}
	mean := sum / float64(len(ts))
	var sq float64
	for _, t := range ts {
		d := float64(t) - mean
		sq += d * d
	}
	std := math.Sqrt(sq / float64(len(ts)))
	cov := 0.0
	if mean > 0 {
		cov = std / mean
	}
	return time.Duration(mean), cov
}

// OverheadPercent returns the Table 9 overhead column: how much slower
// sbd is than base, in percent.
func OverheadPercent(base, sbd time.Duration) float64 {
	if base <= 0 {
		return 0
	}
	return (float64(sbd)/float64(base) - 1) * 100
}

// Speedup returns base1/t — the Figure 7 y-axis (speedup over the
// single-threaded baseline).
func Speedup(base1, t time.Duration) float64 {
	if t <= 0 {
		return 0
	}
	return float64(base1) / float64(t)
}

// GeoMean returns the geometric mean of positive values; zero and
// negative inputs are skipped (they would be measurement errors).
func GeoMean(vals []float64) float64 {
	var logSum float64
	n := 0
	for _, v := range vals {
		if v > 0 {
			logSum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Median returns the median duration.
func Median(ts []time.Duration) time.Duration {
	if len(ts) == 0 {
		return 0
	}
	cp := append([]time.Duration(nil), ts...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return cp[len(cp)/2]
}

// Table renders rows with aligned columns for the cmd/ report tools.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given header.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends a row; values are formatted with %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
