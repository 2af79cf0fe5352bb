package cgp

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"cgp/internal/obs"
)

// obsOpts is harnessOpts with full observability attached: every
// component enabled, the run log writing into logBuf, and attribution
// collected on every CPU.
func obsOpts(workers int, logBuf *bytes.Buffer) RunnerOptions {
	o := harnessOpts(workers)
	o.Obs = obs.New().AttachLog(logBuf)
	o.Attribution = true
	return o
}

// TestObsDoesNotChangeFigures is the quarantine regression the
// observability layer is built around: with every component enabled —
// metrics, spans, run log, progress, attribution — the figure bodies
// must be byte-identical to a run with observability disabled. Wall
// facts may differ run to run; nothing in a report may.
func TestObsDoesNotChangeFigures(t *testing.T) {
	plain := NewRunner(harnessOpts(4))
	want, err := plain.Figure4(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var logBuf bytes.Buffer
	full := NewRunner(obsOpts(4, &logBuf))
	got, err := full.Figure4(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if want.Markdown() != got.Markdown() {
		t.Errorf("figure markdown differs with observability enabled:\nplain:\n%s\nobserved:\n%s",
			want.Markdown(), got.Markdown())
	}
	a, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("figure JSON differs with observability enabled:\nplain: %s\nobserved: %s", a, b)
	}

	// The observability layer must actually have been exercised, or the
	// comparison above proves nothing.
	o := full.opts.Obs
	if o.Spans.Len() == 0 {
		t.Error("no spans recorded by an instrumented campaign")
	}
	if logBuf.Len() == 0 {
		t.Error("no run log entries emitted by an instrumented campaign")
	}
	if o.Det.Counter("sim_jobs").Value() == 0 {
		t.Error("deterministic registry saw no completed jobs")
	}
}

// TestObsDetDomainDeterministic: two identical campaigns produce
// byte-identical deterministic-domain expositions, however their hosts
// scheduled the work.
func TestObsDetDomainDeterministic(t *testing.T) {
	run := func(workers int) string {
		var logBuf bytes.Buffer
		r := NewRunner(obsOpts(workers, &logBuf))
		if _, err := r.RunAll(context.Background(), fig4Jobs(r)); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := r.opts.Obs.Det.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	seq := run(1)
	par := run(8)
	if seq != par {
		t.Errorf("deterministic metrics differ between 1 and 8 workers:\nseq:\n%s\npar:\n%s", seq, par)
	}
	if !strings.Contains(seq, "\nsim_jobs 24\n") {
		t.Errorf("expected 24 completed jobs in det exposition, got:\n%s", seq)
	}
}

// TestObsCampaignArtifacts: a campaign's Chrome trace export and run
// log both pass their validators, and the log tells the full lifecycle
// story (every job queued, every cell either executed or served from
// the singleflight cache). The runner records, so the trace carries the
// record and verify spans of its passes.
func TestObsCampaignArtifacts(t *testing.T) {
	var logBuf bytes.Buffer
	r := NewRunner(recorded(obsOpts(4, &logBuf)))
	jobs := fig4Jobs(r)
	if _, err := r.RunAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	// A single uncached Run is RunAll of one job: a one-cell pass, the
	// trace's last "replay" span.
	w := r.DBWorkloads()[0]
	if _, err := r.Run(context.Background(), w, Config{Layout: LayoutO5, Prefetcher: PrefNL, Degree: 2}); err != nil {
		t.Fatal(err)
	}

	var traceBuf bytes.Buffer
	if err := r.opts.Obs.Spans.WriteChromeTrace(&traceBuf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(traceBuf.Bytes()); err != nil {
		t.Errorf("campaign trace fails validation: %v", err)
	}
	trace := traceBuf.String()
	for _, phase := range []string{`"record"`, `"verify"`, `"replay"`} {
		if !strings.Contains(trace, phase) {
			t.Errorf("campaign trace has no %s span", phase)
		}
	}
	var parsed struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ts   int64             `json:"ts"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceBuf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	var last map[string]string
	var lastTs int64 = -1
	for _, ev := range parsed.TraceEvents {
		if ev.Name == "replay" && ev.Ts >= lastTs {
			last, lastTs = ev.Args, ev.Ts
		}
	}
	if last["workload"] != w.Name || last["cells"] != "1" {
		t.Errorf("the lone Run's pass has args %v, want workload %s and cells 1", last, w.Name)
	}

	entries, err := obs.ValidateRunLog(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatalf("run log fails validation: %v", err)
	}
	// Every job was queued; every distinct cell settled exactly once.
	queued := map[string]int{}
	settled := map[string]int{}
	for _, e := range entries {
		key := e.Workload + "/" + e.Config
		switch obs.JobState(e.Event) {
		case obs.JobQueued:
			queued[key]++
		case obs.JobExecuted, obs.JobReplayed, obs.JobResumed:
			settled[key]++
		}
	}
	cells := map[string]bool{}
	for _, j := range jobs {
		key := j.Workload.Name + "/" + j.Config.withDefaults().Label()
		cells[key] = true
		if queued[key] == 0 {
			t.Errorf("job %s never queued", key)
		}
	}
	// The extra single Run settles too.
	cells[w.Name+"/"+Config{Layout: LayoutO5, Prefetcher: PrefNL, Degree: 2}.withDefaults().Label()] = true
	for key := range cells {
		if settled[key] == 0 {
			t.Errorf("cell %s never settled (executed/replayed/resumed)", key)
		}
	}
	if r.opts.Obs.Log.Err() != nil {
		t.Errorf("run log error: %v", r.opts.Obs.Log.Err())
	}

	// Progress agrees with the log: every cell is in a settled state.
	snap := r.opts.Obs.Progress.Snapshot()
	if len(snap.Jobs) != len(cells) {
		t.Errorf("progress tracks %d jobs, want %d distinct cells", len(snap.Jobs), len(cells))
	}
	for _, jp := range snap.Jobs {
		switch obs.JobState(jp.State) {
		case obs.JobExecuted, obs.JobReplayed, obs.JobResumed:
		default:
			t.Errorf("cell %s/%s left in state %q", jp.Workload, jp.Config, jp.State)
		}
	}
}

// TestAttributionTable exercises the top-N per-function table: rows
// resolve to registry names, rank by prefetch-relevant demand, and the
// markdown rendering carries them.
func TestAttributionTable(t *testing.T) {
	var logBuf bytes.Buffer
	r := NewRunner(obsOpts(2, &logBuf))
	w := r.DBWorkloads()[0]
	cfg := Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4}

	tab, err := r.AttributionTable(context.Background(), w, cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("attribution table has no rows")
	}
	if tab.TotalFuncs < len(tab.Rows) {
		t.Errorf("TotalFuncs %d < rendered rows %d", tab.TotalFuncs, len(tab.Rows))
	}
	named := 0
	for i := range tab.Rows {
		row := &tab.Rows[i]
		if row.Name == "" {
			t.Fatalf("row %d has no name", i)
		}
		if !strings.HasPrefix(row.Name, "0x") && row.Name != "(pre-main)" {
			named++
		}
		if i > 0 && row.Demand() > tab.Rows[i-1].Demand() {
			t.Errorf("rows not ranked by demand at %d", i)
		}
	}
	if named == 0 {
		t.Error("no attribution row resolved to a registry function name")
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| function |") || !strings.Contains(md, tab.Rows[0].Name) {
		t.Errorf("markdown rendering missing table or top row:\n%s", md)
	}

	// Without Attribution set the table is refused, not silently empty.
	plain := NewRunner(harnessOpts(1))
	if _, err := plain.AttributionTable(context.Background(), w, cfg, 10); err == nil {
		t.Error("AttributionTable without RunnerOptions.Attribution should fail")
	}
}
