package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"cgp/internal/units"
)

// Span is one timed harness phase (record, replay, run, checkpoint,
// verify) in flight. Spans belong to the wall-clock domain: they
// describe what the host spent its time on, not what the simulated
// machine did. A nil *Span absorbs all operations, so call sites need
// no enabled-checks.
type Span struct {
	rec   *SpanRecorder
	name  string
	cat   string
	start units.WallNanos
	args  [][2]string
}

// Arg attaches a key/value annotation shown in the trace viewer's
// detail pane. It returns the span for chaining.
func (s *Span) Arg(key, value string) *Span {
	if s == nil {
		return nil
	}
	s.args = append(s.args, [2]string{key, value})
	return s
}

// End closes the span and files it with the recorder.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.finish(spanRecord{
		name:  s.name,
		cat:   s.cat,
		start: s.start,
		dur:   nowWall() - s.start,
		args:  s.args,
	})
}

// spanRecord is one finished span as the Chrome encoder sees it:
// harness spans are filed in this form, and query spans convert to it
// at export, so both kinds share one event model and one writer.
type spanRecord struct {
	name  string
	cat   string
	start units.WallNanos
	dur   units.WallNanos
	args  [][2]string
	// key orders spans that share a start and name (a query's trace
	// ID); harness spans leave it empty and keep their finish order.
	key string
	// stages are laid out back to back from start as events nested
	// on the span's lane; stages with no duration are omitted.
	stages []spanStage
}

// spanStage is one nested stage of a span.
type spanStage struct {
	name string
	dur  units.WallNanos
}

// SpanRecorder collects finished spans for export as Chrome
// trace-event JSON. It is safe for concurrent use from campaign
// workers. A nil *SpanRecorder hands out nil spans.
type SpanRecorder struct {
	mu   sync.Mutex
	done []spanRecord
}

// NewSpanRecorder returns an empty recorder.
func NewSpanRecorder() *SpanRecorder {
	return &SpanRecorder{}
}

// Start opens a span named name in category cat. The returned span
// must be closed with End; an unclosed span is simply dropped.
func (r *SpanRecorder) Start(name, cat string) *Span {
	if r == nil {
		return nil
	}
	return &Span{rec: r, name: name, cat: cat, start: nowWall()}
}

func (r *SpanRecorder) finish(rec spanRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.done = append(r.done, rec)
	r.mu.Unlock()
}

// Len returns the number of finished spans.
func (r *SpanRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.done)
}

// chromeEvent is one Chrome trace-event ("X" = complete event). Field
// order matters only for readability; Perfetto and chrome://tracing
// key on the JSON names.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the JSON object format Perfetto loads directly.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports all finished spans as Chrome trace-event
// JSON (the "JSON object format": {"traceEvents": [...]}). Open the
// file in Perfetto (ui.perfetto.dev) or chrome://tracing. Concurrent
// spans are assigned to lanes ("tid" rows) by greedy interval
// packing, so the campaign's parallel schedule reads directly off the
// timeline: overlapping record/replay spans stack on separate rows,
// and singleflight coalescing shows up as replay spans riding a single
// record span.
func (r *SpanRecorder) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		return writeChromeTrace(w, nil)
	}
	r.mu.Lock()
	recs := append([]spanRecord(nil), r.done...)
	r.mu.Unlock()
	return writeChromeTrace(w, recs)
}

// writeChromeTrace is the one Chrome trace encoder. It sorts recs by
// (start, name, key), packs them greedily onto lanes — each span lands
// on the first lane free by its start — and writes each span as a
// complete ("X") event on its lane, followed by its stage events on the
// same lane. Args build a map in order, so a later duplicate key wins.
func writeChromeTrace(w io.Writer, recs []spanRecord) error {
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := &recs[i], &recs[j]
		if a.start != b.start {
			return a.start < b.start
		}
		if a.name != b.name {
			return a.name < b.name
		}
		return a.key < b.key
	})
	var laneEnds []units.WallNanos
	events := make([]chromeEvent, 0, len(recs))
	for i := range recs {
		rec := &recs[i]
		lane := -1
		for l, end := range laneEnds {
			if end <= rec.start {
				lane = l
				break
			}
		}
		if lane == -1 {
			lane = len(laneEnds)
			laneEnds = append(laneEnds, 0)
		}
		laneEnds[lane] = rec.start + rec.dur

		ev := chromeEvent{
			Name: rec.name, Cat: rec.cat, Ph: "X",
			Ts:  wallInt(rec.start) / 1000, // µs
			Dur: wallInt(rec.dur) / 1000,   // µs
			Pid: 1, Tid: lane + 1,
		}
		if len(rec.args) > 0 {
			ev.Args = make(map[string]string, len(rec.args))
			for _, kv := range rec.args {
				ev.Args[kv[0]] = kv[1]
			}
		}
		events = append(events, ev)
		at := rec.start
		for _, st := range rec.stages {
			if st.dur <= 0 {
				continue
			}
			events = append(events, chromeEvent{
				Name: st.name, Cat: "stage", Ph: "X",
				Ts: wallInt(at) / 1000, Dur: wallInt(st.dur) / 1000,
				Pid: 1, Tid: lane + 1,
			})
			at += st.dur
		}
	}
	return json.NewEncoder(w).Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// ValidateChromeTrace checks that data is well-formed Chrome
// trace-event JSON as this package emits it: the JSON object format
// with a traceEvents array of complete ("X") events carrying the
// fields Perfetto requires. It is used by the CI observability job
// and the package tests to keep the export loadable.
func ValidateChromeTrace(data []byte) error {
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		return fmt.Errorf("trace is not valid JSON: %w", err)
	}
	if trace.TraceEvents == nil {
		return fmt.Errorf("trace has no traceEvents array")
	}
	for i, ev := range trace.TraceEvents {
		name, _ := ev["name"].(string)
		if name == "" {
			return fmt.Errorf("trace event %d: missing name", i)
		}
		if ph, _ := ev["ph"].(string); ph != "X" {
			return fmt.Errorf("trace event %d (%s): ph %q, want complete event \"X\"", i, name, ph)
		}
		for _, field := range []string{"ts", "dur", "pid", "tid"} {
			v, ok := ev[field].(float64)
			if !ok {
				return fmt.Errorf("trace event %d (%s): missing numeric %s", i, name, field)
			}
			if v < 0 {
				return fmt.Errorf("trace event %d (%s): negative %s", i, name, field)
			}
		}
	}
	return nil
}
