package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"cgp/internal/units"
)

// endSpan runs one synthetic query through a tracer: fixed stage
// durations, then End with the given status.
func endSpan(t *QueryTracer, ct *ConnTrace, id uint64, status string, stages map[QueryStage]units.WallNanos) {
	sp := t.Begin(ct, id, "test", true)
	for st, d := range stages {
		sp.Stage(st, d)
	}
	sp.End(status)
}

func TestQueryTracerSlowLogAndReservoir(t *testing.T) {
	var log bytes.Buffer
	// Slowness is judged by each span's measured wall time, so the
	// threshold must lie beyond any preemption a loaded test run can
	// inflict on the five fast spans below; a minute does.
	tr := NewQueryTracer(QueryTraceOptions{
		SlowThreshold: time.Minute,
		LogW:          &log,
		Reservoir:     2,
	})
	ct := tr.Conn()
	// Fast queries: reservoir-sampled at Close, not logged inline.
	for i := uint64(1); i <= 5; i++ {
		endSpan(tr, ct, i, StatusOK, map[QueryStage]units.WallNanos{StageExecute: 100})
	}
	// Spans whose accumulated total crosses the threshold stream out
	// immediately; TestQueryTracerZeroThresholdLogsEverything covers
	// that with a zero threshold.
	ct.Close()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := ValidateQueryLog(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Only the reservoir (2 of 5 normal spans) reached the log.
	if len(entries) != 2 {
		t.Fatalf("log has %d entries, want 2 (reservoir)", len(entries))
	}
	for _, e := range entries {
		if e.Slow {
			t.Fatalf("reservoir entry %s marked slow", e.TraceID)
		}
	}
	if tr.Traced() != 5 || tr.Slow() != 0 {
		t.Fatalf("traced=%d slow=%d, want 5/0", tr.Traced(), tr.Slow())
	}
}

func TestQueryTracerZeroThresholdLogsEverything(t *testing.T) {
	var log bytes.Buffer
	tr := NewQueryTracer(QueryTraceOptions{SlowThreshold: 0, LogW: &log})
	ct := tr.Conn()
	for i := uint64(1); i <= 3; i++ {
		endSpan(tr, ct, i, StatusOK, map[QueryStage]units.WallNanos{
			StagePrep:  50,
			StageDrain: 500,
		})
	}
	ct.Close()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := ValidateQueryLog(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("log has %d entries, want 3", len(entries))
	}
	ids := map[uint64]bool{}
	for _, e := range entries {
		if !e.Slow {
			t.Fatalf("zero-threshold entry %s not marked slow", e.TraceID)
		}
		if e.Stages["prep"] != 50 || e.Stages["drain"] != 500 {
			t.Fatalf("entry %s stages = %v", e.TraceID, e.Stages)
		}
		ids[e.ID()] = true
	}
	if !ids[1] || !ids[2] || !ids[3] {
		t.Fatalf("log IDs = %v, want 1..3", ids)
	}
	if tr.Slow() != 3 {
		t.Fatalf("slow = %d, want 3", tr.Slow())
	}
}

func TestValidateQueryLogRejectsBadLines(t *testing.T) {
	for _, tc := range []struct {
		name, line string
	}{
		{"not json", "not json"},
		{"short id", `{"trace_id":"12ab","conn":"c","status":"ok","total_ns":1,"stages":{}}`},
		{"zero id", `{"trace_id":"0000000000000000","conn":"c","status":"ok","total_ns":1,"stages":{}}`},
		{"trailing non-hex", `{"trace_id":"00000000000001zz","conn":"c","status":"ok","total_ns":1,"stages":{}}`},
		{"space padded", `{"trace_id":" 00000000000001 ","conn":"c","status":"ok","total_ns":1,"stages":{}}`},
		{"trailing spaces", `{"trace_id":"1               ","conn":"c","status":"ok","total_ns":1,"stages":{}}`},
		{"bad status", `{"trace_id":"0000000000000001","conn":"c","status":"weird","total_ns":1,"stages":{}}`},
		{"empty conn", `{"trace_id":"0000000000000001","conn":"","status":"ok","total_ns":1,"stages":{}}`},
		{"negative total", `{"trace_id":"0000000000000001","conn":"c","status":"ok","total_ns":-5,"stages":{}}`},
		{"unknown stage", `{"trace_id":"0000000000000001","conn":"c","status":"ok","total_ns":1,"stages":{"warp":3}}`},
		{"negative stage", `{"trace_id":"0000000000000001","conn":"c","status":"ok","total_ns":1,"stages":{"prep":-1}}`},
	} {
		if _, err := ValidateQueryLog(strings.NewReader(tc.line + "\n")); err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.line)
		}
	}
}

func TestQueryTracerFlushBatching(t *testing.T) {
	tr := NewQueryTracer(QueryTraceOptions{})
	ct := tr.Conn()
	for i := 0; i < spanFlushBatch-1; i++ {
		endSpan(tr, ct, uint64(i+1), StatusOK, nil)
	}
	// Below the batch size: nothing has reached the collector yet.
	if got := len(tr.Spans()); got != 0 {
		t.Fatalf("collector saw %d spans before batch flush", got)
	}
	endSpan(tr, ct, spanFlushBatch, StatusOK, nil)
	if got := len(tr.Spans()); got != spanFlushBatch {
		t.Fatalf("collector saw %d spans after batch boundary, want %d", got, spanFlushBatch)
	}
	// Stragglers arrive at Close.
	endSpan(tr, ct, spanFlushBatch+1, StatusOK, nil)
	ct.Close()
	if got := len(tr.Spans()); got != spanFlushBatch+1 {
		t.Fatalf("collector saw %d spans after ConnTrace close, want %d", got, spanFlushBatch+1)
	}
}

func TestQueryTracerNilAbsorbs(t *testing.T) {
	var tr *QueryTracer
	ct := tr.Conn()
	if ct != nil {
		t.Fatal("nil tracer handed out a ConnTrace")
	}
	sp := tr.Begin(ct, 1, "c", true)
	sp.Stage(StageDrain, 100)
	sp.End(StatusOK)
	ct.Close()
	if tr.Traced() != 0 || tr.Spans() != nil || tr.Close() != nil {
		t.Fatal("nil tracer not fully absorbing")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tr.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestQueryTracerPrometheusOutput(t *testing.T) {
	tr := NewQueryTracer(QueryTraceOptions{})
	ct := tr.Conn()
	for i := uint64(1); i <= 100; i++ {
		endSpan(tr, ct, i, StatusOK, map[QueryStage]units.WallNanos{
			StageExecute: units.WallNanos(i * 1000),
		})
	}
	ct.Close()
	var buf bytes.Buffer
	if err := tr.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if err := ValidatePrometheusText(buf.Bytes()); err != nil {
		t.Fatalf("tracer exposition fails lint: %v\n%s", err, body)
	}
	// Every stage (plus total) exposes all four quantiles.
	for st := QueryStage(0); st < NumQueryStages; st++ {
		for _, q := range []string{"0.5", "0.95", "0.99", "0.999"} {
			probe := `cgp_query_stage_latency_ns{stage="` + st.String() + `",quantile="` + q + `"}`
			if !strings.Contains(body, probe) {
				t.Fatalf("missing %s in exposition", probe)
			}
		}
	}
	if !strings.Contains(body, "cgp_queries_traced_total 100") {
		t.Fatalf("missing traced counter:\n%s", body)
	}
}

func TestWallHistQuantiles(t *testing.T) {
	var h wallHist
	// 1000 observations uniform in [1000, 2000): p50 lands in the
	// [1024, 2048) bucket, and the interpolated estimate must stay
	// within the bucket's bounds.
	for i := 0; i < 1000; i++ {
		h.observe(units.WallNanos(1000 + i))
	}
	p50 := h.quantile(0.5)
	if p50 < 512 || p50 > 2048 {
		t.Fatalf("p50 = %g, want within [512, 2048]", p50)
	}
	if q := h.quantile(0); q < 0 {
		t.Fatalf("q0 = %g", q)
	}
	if h.quantile(1) < h.quantile(0.5) {
		t.Fatal("quantile not monotone")
	}
	var empty wallHist
	if empty.quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
}

func TestWriteChromeTraceShape(t *testing.T) {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	export := func(tr *QueryTracer) []event {
		t.Helper()
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var out struct {
			TraceEvents     []event `json:"traceEvents"`
			DisplayTimeUnit string  `json:"displayTimeUnit"`
		}
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("chrome trace is not valid JSON: %v", err)
		}
		return out.TraceEvents
	}

	tr := NewQueryTracer(QueryTraceOptions{})
	ct := tr.Conn()
	endSpan(tr, ct, 0xbeef, StatusOK, map[QueryStage]units.WallNanos{
		StagePrep:  2000,
		StageDrain: 5000,
	})
	ct.Close()
	events := export(tr)
	// One umbrella event plus one per nonzero stage.
	if len(events) != 3 {
		t.Fatalf("chrome trace has %d events, want 3", len(events))
	}
	if events[0].Name != "query" || events[0].Args["trace_id"] != "000000000000beef" {
		t.Fatalf("umbrella event = %+v", events[0])
	}
	for _, ev := range events {
		if ev.Ph != "X" {
			t.Fatalf("event %q has phase %q, want X", ev.Name, ev.Ph)
		}
		// Stage events nest on their umbrella's lane.
		if ev.Tid != events[0].Tid {
			t.Fatalf("stage %q on lane %d, umbrella on lane %d", ev.Name, ev.Tid, events[0].Tid)
		}
	}

	// Two overlapping queries land on different lanes. The spans are
	// filed directly so the intervals are exact.
	tr = NewQueryTracer(QueryTraceOptions{})
	tr.absorb([]QuerySpanData{
		{ID: 1, Conn: "a", Status: StatusOK, Start: 1000, Total: 5000},
		{ID: 2, Conn: "b", Status: StatusOK, Start: 2000, Total: 5000},
	})
	lanes := map[string]int{}
	for _, ev := range export(tr) {
		lanes[ev.Args["trace_id"]] = ev.Tid
	}
	if len(lanes) != 2 || lanes["0000000000000001"] == lanes["0000000000000002"] {
		t.Fatalf("overlapping queries' lanes = %v, want two distinct lanes", lanes)
	}
}

func TestValidatePrometheusText(t *testing.T) {
	good := strings.Join([]string{
		`# HELP x_total Things.`,
		`# TYPE x_total counter`,
		`x_total 3`,
		`# HELP lat summary of stuff`,
		`# TYPE lat summary`,
		`lat{quantile="0.5"} 12`,
		`lat_sum 40`,
		`lat_count 3`,
		`# HELP h histo`,
		`# TYPE h histogram`,
		`h_bucket{le="1"} 1`,
		`h_bucket{le="+Inf"} 2`,
		`h_sum 3`,
		`h_count 2`,
		`# HELP esc escaped label`,
		`# TYPE esc gauge`,
		`esc{l="a\"b\\c\nd"} 1`,
		``,
	}, "\n")
	if err := ValidatePrometheusText([]byte(good)); err != nil {
		t.Fatalf("good exposition rejected: %v", err)
	}
	for name, bad := range map[string]string{
		"sample before TYPE": "y_total 1\n# TYPE y_total counter\n",
		"unknown type":       "# TYPE z wibble\nz 1\n",
		"bad value":          "# TYPE z gauge\nz banana\n",
		"bad quantile":       "# TYPE s summary\ns{quantile=\"1.5\"} 2\ns_sum 1\ns_count 1\n",
		"histogram no +Inf":  "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"unterminated label": "# TYPE g gauge\ng{l=\"x} 1\n",
		"garbage line":       "# TYPE g gauge\ng 1\nwhat even is this{\n",
	} {
		if err := ValidatePrometheusText([]byte(bad)); err == nil {
			t.Errorf("%s: accepted:\n%s", name, bad)
		}
	}
}
