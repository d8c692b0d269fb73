package harness

import (
	"strings"
	"testing"
	"time"
)

func TestMeasureConvergesOnStableWork(t *testing.T) {
	cfg := Config{Window: 4, MaxCoV: 0.9, MaxIters: 20}
	calls := 0
	r := Measure(cfg, func() {
		calls++
		time.Sleep(time.Millisecond)
	})
	if !r.Converged {
		t.Fatalf("stable workload did not converge: CoV=%.3f", r.CoV)
	}
	if r.Iterations != calls || r.Iterations > cfg.MaxIters {
		t.Fatalf("iterations=%d calls=%d", r.Iterations, calls)
	}
	if r.Mean <= 0 {
		t.Fatal("mean not computed")
	}
}

func TestMeasureHitsCapOnNoisyWork(t *testing.T) {
	cfg := Config{Window: 3, MaxCoV: 0.000001, MaxIters: 6}
	i := 0
	r := Measure(cfg, func() {
		i++
		time.Sleep(time.Duration(i) * 200 * time.Microsecond) // monotonically slower
	})
	if r.Converged {
		t.Fatal("diverging workload reported convergence")
	}
	if r.Iterations != cfg.MaxIters {
		t.Fatalf("iterations = %d, want cap %d", r.Iterations, cfg.MaxIters)
	}
}

func TestMeasureClampsDegenerateConfig(t *testing.T) {
	r := Measure(Config{Window: 0, MaxCoV: 1, MaxIters: 0}, func() {})
	if r.Iterations < 2 {
		t.Fatalf("degenerate config ran %d iterations", r.Iterations)
	}
}

func TestMeanCoV(t *testing.T) {
	mean, cov := meanCoV([]time.Duration{100, 100, 100})
	if mean != 100 || cov != 0 {
		t.Fatalf("constant series: mean=%v cov=%v", mean, cov)
	}
	_, cov = meanCoV([]time.Duration{100, 200})
	if cov <= 0 {
		t.Fatal("varying series has zero CoV")
	}
}

func TestOverheadPercent(t *testing.T) {
	if got := OverheadPercent(100, 125); got != 25 {
		t.Fatalf("overhead = %v", got)
	}
	if got := OverheadPercent(100, 100); got != 0 {
		t.Fatalf("overhead = %v", got)
	}
	if got := OverheadPercent(0, 100); got != 0 {
		t.Fatalf("zero base overhead = %v", got)
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(1000, 250); got != 4 {
		t.Fatalf("speedup = %v", got)
	}
	if got := Speedup(1000, 0); got != 0 {
		t.Fatalf("zero time speedup = %v", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); got != 4 {
		t.Fatalf("geomean = %v", got)
	}
	if got := GeoMean([]float64{5}); got != 5 {
		t.Fatalf("geomean single = %v", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Fatalf("geomean empty = %v", got)
	}
	if got := GeoMean([]float64{0, -1, 4}); got != 4 {
		t.Fatalf("geomean skips non-positive: %v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]time.Duration{3, 1, 2}); got != 2 {
		t.Fatalf("median = %v", got)
	}
	if got := Median(nil); got != 0 {
		t.Fatalf("median empty = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Bench", "Thr", "Ovr%")
	tbl.Row("h2", 4, 1.9)
	tbl.Row("sunflow", 32, 102.0)
	out := tbl.String()
	if !strings.Contains(out, "Bench") || !strings.Contains(out, "sunflow") {
		t.Fatalf("table output:\n%s", out)
	}
	if !strings.Contains(out, "102.00") {
		t.Fatalf("float formatting missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
}
