package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cgp/internal/units"
)

func TestNilSafety(t *testing.T) {
	// Every hook must be callable through nil receivers at every level:
	// disabled observability is the default, and instrumented code does
	// not guard its calls.
	var o *Observability
	o.Job(JobStarted, "w|c", "w", "c", "")
	o.Span("x", "y").Arg("k", "v").End()
	o.AttachLog(&bytes.Buffer{})

	var reg *Registry
	reg.Counter("a").Add(1)
	if err := reg.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	var wr *WallRegistry
	wr.Incr("a", 1)
	wr.Observe("b", 5)
	if wr.Count("a") != 0 || wr.Total("b") != 0 {
		t.Fatal("nil WallRegistry returned non-zero values")
	}

	var sr *SpanRecorder
	sr.Start("a", "b").End()
	if sr.Len() != 0 {
		t.Fatal("nil SpanRecorder recorded a span")
	}
	var buf bytes.Buffer
	if err := sr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("nil recorder's trace invalid: %v", err)
	}

	var rl *RunLog
	rl.Emit(JobFailed, "w", "c", "boom")
	if rl.Err() != nil {
		t.Fatal("nil RunLog reported an error")
	}

	var p *Progress
	p.Update(JobStarted, "w|c", "w", "c")
	if p.Count(JobStarted) != 0 {
		t.Fatal("nil Progress counted a job")
	}
	if err := p.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryExpositionSortedAndStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta").Add(3)
	r.Counter("alpha").Add(1)
	r.Counter("mid").Add(2)

	var a, b bytes.Buffer
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("exposition not stable:\n%s\nvs\n%s", a.String(), b.String())
	}
	if err := ValidatePrometheusText(a.Bytes()); err != nil {
		t.Fatalf("exposition fails the lint: %v\n%s", err, a.String())
	}
	var samples []string
	for _, line := range strings.Split(strings.TrimSpace(a.String()), "\n") {
		if !strings.HasPrefix(line, "#") {
			samples = append(samples, line)
		}
	}
	want := []string{"alpha 1", "mid 2", "zeta 3"}
	if strings.Join(samples, "\n") != strings.Join(want, "\n") {
		t.Fatalf("exposition samples %q, want %q (sorted by name)", samples, want)
	}
	if !strings.Contains(a.String(), "# TYPE alpha counter\n") {
		t.Fatalf("exposition missing counter TYPE line:\n%s", a.String())
	}
}

func TestCountersConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("n").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestChromeTraceExportAndValidate(t *testing.T) {
	rec := NewSpanRecorder()
	s1 := rec.Start("record", "harness").Arg("workload", "wisconsin")
	rec.Start("replay", "harness").End()
	s1.End()
	if rec.Len() != 2 {
		t.Fatalf("recorded %d spans, want 2", rec.Len())
	}

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("emitted trace fails own validator: %v", err)
	}

	var trace struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	if len(trace.TraceEvents) != 2 {
		t.Fatalf("trace has %d events, want 2", len(trace.TraceEvents))
	}
	names := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		names[ev.Name] = true
		if ev.Ph != "X" || ev.Pid != 1 || ev.Tid < 1 {
			t.Fatalf("malformed event %+v", ev)
		}
	}
	if !names["record"] || !names["replay"] {
		t.Fatalf("trace missing span names: %v", names)
	}
	for _, ev := range trace.TraceEvents {
		if ev.Name == "record" && ev.Args["workload"] != "wisconsin" {
			t.Fatalf("record span lost its args: %+v", ev)
		}
	}
}

func TestChromeTraceLaneAssignment(t *testing.T) {
	// Two overlapping spans must land on different lanes; a later
	// non-overlapping span reuses lane 1. Records are injected
	// directly so the intervals are exact.
	rec := NewSpanRecorder()
	rec.finish(spanRecord{name: "a", cat: "c", start: 0, dur: 100})
	rec.finish(spanRecord{name: "b", cat: "c", start: 50, dur: 100}) // overlaps a
	rec.finish(spanRecord{name: "c", cat: "c", start: 200, dur: 10}) // after both

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	tids := map[string]int{}
	for _, ev := range trace.TraceEvents {
		tids[ev.Name] = ev.Tid
	}
	if tids["a"] == tids["b"] {
		t.Fatalf("overlapping spans share lane %d", tids["a"])
	}
	if tids["c"] != 1 {
		t.Fatalf("span after all others on lane %d, want reuse of lane 1", tids["c"])
	}
}

func TestValidateChromeTraceRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":      `{`,
		"no array":      `{"displayTimeUnit":"ms"}`,
		"missing name":  `{"traceEvents":[{"ph":"X","ts":1,"dur":1,"pid":1,"tid":1}]}`,
		"wrong phase":   `{"traceEvents":[{"name":"x","ph":"B","ts":1,"dur":1,"pid":1,"tid":1}]}`,
		"missing ts":    `{"traceEvents":[{"name":"x","ph":"X","dur":1,"pid":1,"tid":1}]}`,
		"negative time": `{"traceEvents":[{"name":"x","ph":"X","ts":-5,"dur":1,"pid":1,"tid":1}]}`,
	}
	for label, data := range cases {
		if err := ValidateChromeTrace([]byte(data)); err == nil {
			t.Errorf("%s: validator accepted %s", label, data)
		}
	}
}

func TestRunLogEmitAndValidate(t *testing.T) {
	var buf bytes.Buffer
	l := NewRunLog(&buf)
	l.Emit(JobQueued, "wisconsin", "cgp4", "")
	l.Emit(JobStarted, "wisconsin", "cgp4", "")
	l.Emit(JobExecuted, "wisconsin", "cgp4", "")
	l.Emit(JobResumed, "tpch", "nl8", "checkpoint hit")
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}

	entries, err := ValidateRunLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("parsed %d entries, want 4", len(entries))
	}
	if entries[3].Event != string(JobResumed) || entries[3].Detail != "checkpoint hit" {
		t.Fatalf("last entry %+v", entries[3])
	}
	for i, e := range entries {
		if e.Seq != int64(i+1) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
	}
}

func TestValidateRunLogRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad json":      "{\n",
		"unknown event": `{"seq":1,"event":"exploded","workload":"w","config":"c","wall_ns":1}` + "\n",
		"empty config":  `{"seq":1,"event":"started","workload":"w","config":"","wall_ns":1}` + "\n",
		"seq regression": `{"seq":2,"event":"started","workload":"w","config":"c","wall_ns":1}` + "\n" +
			`{"seq":1,"event":"executed","workload":"w","config":"c","wall_ns":2}` + "\n",
	}
	for label, data := range cases {
		if _, err := ValidateRunLog(strings.NewReader(data)); err == nil {
			t.Errorf("%s: validator accepted %q", label, data)
		}
	}
}

func TestValidateRunLogWorkerIDs(t *testing.T) {
	line := func(seq int, worker string) string {
		return `{"seq":` + fmt.Sprint(seq) + `,"event":"executed","workload":"w","config":"c","worker":"` + worker + `","wall_ns":1}` + "\n"
	}
	// Entries must always carry a worker id, whitelist or not.
	if _, err := ValidateRunLog(strings.NewReader(`{"seq":1,"event":"executed","workload":"w","config":"c","wall_ns":1}` + "\n")); err == nil {
		t.Error("validator accepted an entry with no worker id")
	}
	// Without a whitelist any non-empty id passes.
	if _, err := ValidateRunLog(strings.NewReader(line(1, "w9"))); err != nil {
		t.Errorf("no whitelist: %v", err)
	}
	// With one, ids outside it fail — the experiments exit boundary
	// passes "main" plus the campaign's "w1".."wN".
	ok := line(1, DefaultWorker) + line(2, "w1") + line(3, "w2")
	if _, err := ValidateRunLog(strings.NewReader(ok), DefaultWorker, "w1", "w2"); err != nil {
		t.Errorf("whitelisted ids rejected: %v", err)
	}
	bad := line(1, DefaultWorker) + line(2, "w3")
	if _, err := ValidateRunLog(strings.NewReader(bad), DefaultWorker, "w1", "w2"); err == nil {
		t.Error("validator accepted an entry from an unknown worker")
	}

	// A forwarded entry keeps its origin worker and wall stamp but is
	// re-sequenced into the coordinator's log.
	var buf bytes.Buffer
	l := NewRunLog(&buf)
	l.Emit(JobQueued, "w", "c", "")
	l.EmitEntry(RunLogEntry{Seq: 99, Event: "executed", Workload: "w", Config: "c", Worker: "w2", WallNs: 7})
	entries, err := ValidateRunLog(bytes.NewReader(buf.Bytes()), DefaultWorker, "w2")
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Worker != DefaultWorker {
		t.Errorf("Emit stamped worker %q, want %q", entries[0].Worker, DefaultWorker)
	}
	if e := entries[1]; e.Worker != "w2" || e.WallNs != 7 || e.Seq != 2 {
		t.Errorf("forwarded entry %+v: want worker w2, wall 7, seq restamped to 2", e)
	}
}

func TestProgressSnapshotAndResumeDistinction(t *testing.T) {
	p := NewProgress()
	p.Update(JobQueued, "w1|c1", "w1", "c1")
	p.Update(JobStarted, "w1|c1", "w1", "c1")
	p.Update(JobExecuted, "w1|c1", "w1", "c1")
	p.Update(JobResumed, "w1|c2", "w1", "c2")
	p.Update(JobQueued, "w0|c9", "w0", "c9")

	snap := p.Snapshot()
	if len(snap.Jobs) != 3 {
		t.Fatalf("%d jobs, want 3", len(snap.Jobs))
	}
	// Sorted by (workload, config).
	if snap.Jobs[0].Workload != "w0" || snap.Jobs[1].Config != "c1" || snap.Jobs[2].Config != "c2" {
		t.Fatalf("snapshot order wrong: %+v", snap.Jobs)
	}
	if !snap.Jobs[2].Resumed || snap.Jobs[1].Resumed {
		t.Fatalf("resumed flags wrong: %+v", snap.Jobs)
	}
	if snap.Counts["executed"] != 1 || snap.Counts["resumed"] != 1 || snap.Counts["queued"] != 1 {
		t.Fatalf("counts wrong: %v", snap.Counts)
	}
	if p.Count(JobResumed) != 1 {
		t.Fatalf("Count(resumed) = %d", p.Count(JobResumed))
	}
}

// TestProgressKeysJobsNotLabels: two jobs that share a workload and
// config label (two CGHC geometries, say) are two entries, ordered by
// key after the labels, and a job keeps one entry however often it
// moves.
func TestProgressKeysJobsNotLabels(t *testing.T) {
	p := NewProgress()
	p.Update(JobQueued, "run|w|b", "w", "cgp")
	p.Update(JobQueued, "run|w|a", "w", "cgp")
	p.Update(JobExecuted, "run|w|b", "w", "cgp")
	p.Update(JobQueued, "run|v|c", "v", "nl")
	snap := p.Snapshot()
	if len(snap.Jobs) != 3 {
		t.Fatalf("%d jobs, want 3: %+v", len(snap.Jobs), snap.Jobs)
	}
	want := []JobProgress{
		{Workload: "v", Config: "nl", State: "queued", key: "run|v|c"},
		{Workload: "w", Config: "cgp", State: "queued", key: "run|w|a"},
		{Workload: "w", Config: "cgp", State: "executed", key: "run|w|b"},
	}
	for i := range want {
		if snap.Jobs[i] != want[i] {
			t.Errorf("job %d = %+v, want %+v", i, snap.Jobs[i], want[i])
		}
	}
	if snap.Counts["queued"] != 2 || snap.Counts["executed"] != 1 {
		t.Errorf("counts = %v", snap.Counts)
	}
}

func TestWallRegistryExposition(t *testing.T) {
	r := NewWallRegistry()
	r.Incr("retries", 2)
	r.Observe("record", units.WallNanos(1500))
	r.Observe("record", units.WallNanos(500))

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := ValidatePrometheusText(buf.Bytes()); err != nil {
		t.Fatalf("exposition fails the lint: %v\n%s", err, out)
	}
	for _, want := range []string{"wall_retries_total 2\n", "wall_record_count 2\n", "wall_record_total_ns 2000\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if r.Count("retries") != 2 || r.Total("record") != 2000 {
		t.Fatalf("accessors wrong: %d, %d", r.Count("retries"), r.Total("record"))
	}
}

func TestDebugMuxEndpoints(t *testing.T) {
	o := New()
	o.Det.Counter("cgp_jobs").Add(7)
	o.Wall.Incr("retries", 1)
	o.Job(JobResumed, "wisconsin|cgp4", "wisconsin", "cgp4", "")

	mux := NewDebugMux(o)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var b bytes.Buffer
		if _, err := b.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, "cgp_jobs 7\n") {
		t.Fatalf("/metrics missing deterministic counter:\n%s", metrics)
	}
	if !strings.Contains(metrics, "wall_retries_total 1\n") {
		t.Fatalf("/metrics missing wall counter:\n%s", metrics)
	}
	if err := ValidatePrometheusText([]byte(metrics)); err != nil {
		t.Fatalf("/metrics fails the exposition lint: %v\n%s", err, metrics)
	}

	progress := get("/progress")
	var snap ProgressSnapshot
	if err := json.Unmarshal([]byte(progress), &snap); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, progress)
	}
	if len(snap.Jobs) != 1 || !snap.Jobs[0].Resumed {
		t.Fatalf("/progress snapshot wrong: %+v", snap)
	}

	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

func TestDebugMuxNilObservability(t *testing.T) {
	srv := httptest.NewServer(NewDebugMux(nil))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/progress"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s with nil obs: status %d", path, resp.StatusCode)
		}
	}
}
