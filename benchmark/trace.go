package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
	"unsafe"
)

// A span is one timed call into a layer. Spans of one tracer nest by
// stack discipline (a tracer belongs to one goroutine), so siblings
// never overlap and a span's children lie inside it.
type span struct {
	kind   spanKind
	parent int32  // index of the enclosing span in the same tracer, -1 for a root
	req    uint32 // request (or iteration) the span belongs to
	start  int64  // ns since the tracer's epoch
	end    int64
}

// spanKind indexes spanNames. Kinds are registered before any tracer
// runs, so the table is read-only while spans are recorded.
type spanKind uint8

var spanNames []string

func newSpanKind(name string) spanKind {
	spanNames = append(spanNames, name)
	return spanKind(len(spanNames) - 1)
}

// tracer records the spans of one goroutine in memory. A nil *tracer is
// tracing switched off: every method returns at once, so the traced and
// untraced serving loops are the same code.
type tracer struct {
	id    int // connection or thread the spans belong to
	epoch time.Time
	spans []span
	open  []int32 // indexes of the spans begun and not yet ended
	req   uint32
}

// newTracer reserves room for capacity spans outside the Go heap (spans
// hold no pointers). On the heap the reservation would count as live
// memory, the collector would run a fraction as often, and the traced
// server would come out a fifth faster than the untraced one.
func newTracer(id int, epoch time.Time, capacity int) (*tracer, error) {
	mem, err := syscall.Mmap(-1, 0, capacity*int(unsafe.Sizeof(span{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reserve span storage: %w", err)
	}
	spans := unsafe.Slice((*span)(unsafe.Pointer(&mem[0])), capacity)
	return &tracer{id: id, epoch: epoch, spans: spans[:0]}, nil
}

// nextRequest starts attributing spans to the next request id.
func (t *tracer) nextRequest() {
	if t != nil {
		t.req++
	}
}

// begin opens a span of kind k under the innermost open span.
func (t *tracer) begin(k spanKind) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, int32(len(t.spans)))
	t.spans = append(t.spans, span{kind: k, parent: parent, req: t.req, start: int64(time.Since(t.epoch))})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].end = int64(time.Since(t.epoch))
	t.open = t.open[:n]
}

// unwindTo closes open spans until the innermost one has kind a or b.
// A section body that is replayed after an abort starts again from its
// first line; the spans the aborted attempt left open end here, inside
// the Atomic or Split span that is replaying it.
func (t *tracer) unwindTo(a, b spanKind) {
	if t == nil {
		return
	}
	for n := len(t.open); n > 0; n = len(t.open) {
		if k := t.spans[t.open[n-1]].kind; k == a || k == b {
			return
		}
		t.end()
	}
}

// selfTimes returns, per span, its duration minus the part its child
// spans cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		d := s.end - s.start
		self[i] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
	}
	return self
}

// perRequest sums values[i] over the spans whose kind is in kinds, per
// request id, and returns one figure (in the values' unit) per request
// that has such a span. Requests at or beyond limit are skipped: they
// were cut short when the run ended.
func perRequest(spans []span, values []int64, limit uint32, kinds ...spanKind) []float64 {
	want := make([]bool, len(spanNames))
	for _, k := range kinds {
		want[k] = true
	}
	sums := make([]int64, limit)
	seen := make([]bool, limit)
	for i, s := range spans {
		if want[s.kind] && s.req < limit {
			sums[s.req] += values[i]
			seen[s.req] = true
		}
	}
	out := make([]float64, 0, limit)
	for r, ok := range seen {
		if ok {
			out = append(out, float64(sums[r]))
		}
	}
	return out
}

// countKind counts the spans of kind k among requests below limit.
func countKind(spans []span, limit uint32, k spanKind) int {
	n := 0
	for _, s := range spans {
		if s.kind == k && s.req < limit {
			n++
		}
	}
	return n
}

// traceFileSpans caps the trace file: medians are computed over every
// span in memory, the file keeps the first spans of each tracer so it
// stays small enough to open.
const traceFileSpans = 20000

type spanJSON struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Thread  int    `json:"thread"`
	Req     uint32 `json:"req"`
	Parent  int    `json:"parent"` // id of the span that caused this one, -1 for none
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// traceFile names the trace file of a workload.
func traceFile(outDir, workload string) string {
	return filepath.Join(outDir, "trace-"+workload+".json")
}

// writeTrace writes the spans of tracers to traceFile(outDir, workload)
// and returns that path.
func writeTrace(outDir, workload string, tracers []*tracer) (string, error) {
	type file struct {
		Workload  string     `json:"workload"`
		Truncated bool       `json:"truncated"`
		Spans     []spanJSON `json:"spans"`
	}
	f := file{Workload: workload}
	base := 0
	for _, t := range tracers {
		self := selfTimes(t.spans)
		n := min(len(t.spans), traceFileSpans)
		f.Truncated = f.Truncated || n < len(t.spans)
		for i, s := range t.spans[:n] {
			parent := -1
			if s.parent >= 0 {
				parent = base + int(s.parent)
			}
			f.Spans = append(f.Spans, spanJSON{
				ID: base + i, Name: spanNames[s.kind], Thread: t.id, Req: s.req,
				Parent: parent, StartNs: s.start, EndNs: s.end, SelfNs: self[i],
			})
		}
		base += n
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := traceFile(outDir, workload)
	data, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
