package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// result collects what one run of one workload measured.
type result struct {
	attempted int
	failed    int
	problems  []string // why the run is not correct
	invalid   []string // why a figure does not measure the program (generator too late, ...)

	values    map[string]float64 // every metric by name
	samples   map[string]int     // sample count behind a percentile
	cells     map[string]summary // repeated cells: median and quartiles
	constants map[string]any     // workload constants and run conditions
}

func newResult() *result {
	return &result{
		values:    map[string]float64{},
		samples:   map[string]int{},
		cells:     map[string]summary{},
		constants: map[string]any{},
	}
}

func (r *result) set(name string, v float64)    { r.values[name] = v }
func (r *result) sample(name string, n int)     { r.samples[name] = n }
func (r *result) constant(name string, v any)   { r.constants[name] = v }
func (r *result) cell(name string, v []float64) { r.cells[name] = summarize(v) }
func (r *result) problem(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func (r *result) failPct() float64 { return 100 * ratio(float64(r.failed), float64(r.attempted)) }

// metricValue is one entry of the last output line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine is the last line of standard output: the contract with the
// driver. With trace off it carries every end-to-end metric, with trace
// on every per-layer metric; a per-layer metric of a layer the workload
// does not exercise reads 0.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) finalLine(defs []metricDef) finalLine {
	out := finalLine{Correct: r.correct(), Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: r.values[d.Name], Unit: d.Unit}
	}
	return out
}

// report is the full record of a run: what the last line says plus the
// conditions it was measured under. It is printed before the last line
// and written to out/result-<workload>-trace<0|1>.json.
type report struct {
	Workload   string             `json:"workload"`
	Trace      bool               `json:"trace"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	FailPct    float64            `json:"fail_pct"`
	Problems   []string           `json:"problems,omitempty"`
	Invalid    []string           `json:"invalid,omitempty"`
	Conditions map[string]any     `json:"conditions"`
	Samples    map[string]int     `json:"samples,omitempty"`
	Cells      map[string]summary `json:"cells,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
}

func (r *result) report(workload string, trace bool) report {
	return report{
		Workload: workload, Trace: trace, Correct: r.correct(),
		Attempted: r.attempted, Failed: r.failed, FailPct: r.failPct(),
		Problems: r.problems, Invalid: r.invalid,
		Conditions: r.constants, Samples: r.samples, Cells: r.cells, Metrics: r.values,
	}
}

// printReport writes the human-readable form: every metric by name with
// its unit, then conditions, problems and the report as one JSON line.
func printReport(w io.Writer, rep report) {
	fmt.Fprintf(w, "workload %s (trace %v): correct=%v attempted=%d failed=%d fail_pct=%.4f\n",
		rep.Workload, rep.Trace, rep.Correct, rep.Attempted, rep.Failed, rep.FailPct)
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		line := fmt.Sprintf("  %-34s %14.4f %-6s", name, rep.Metrics[name], unitOf(name))
		if n, ok := rep.Samples[name]; ok {
			line += fmt.Sprintf("  n=%d", n)
		}
		if c, ok := rep.Cells[name]; ok {
			line += fmt.Sprintf("  n=%d q1=%.4g median=%.4g q3=%.4g", c.N, c.Q1, c.Median, c.Q3)
		}
		fmt.Fprintln(w, line)
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(w, "  WRONG:", p)
	}
	for _, p := range rep.Invalid {
		fmt.Fprintln(w, "  INVALID:", p)
	}
	if data, err := json.Marshal(rep); err == nil {
		fmt.Fprintf(w, "report %s\n", data)
	}
}

func writeReport(outDir string, rep report) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if rep.Trace {
		trace = 1
	}
	return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("result-%s-trace%d.json", rep.Workload, trace)), data, 0o644)
}
