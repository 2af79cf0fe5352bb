package cgp

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"testing"

	"cgp/internal/obs"
	"cgp/internal/sample"
	"cgp/internal/workload"
)

// harnessOpts is a reduced scale for the harness determinism tests,
// which run the Figure-4 grid through independent runners.
func harnessOpts(workers int) RunnerOptions {
	return RunnerOptions{
		DB: DBOptions{
			WiscN: 400, Quantum: 5, Seed: 11, BufferFrames: 4096,
			TPCH: workload.TPCHScale{Suppliers: 8, Customers: 30, Parts: 45, Orders: 100, MaxLines: 3},
		},
		Seed:    11,
		Workers: workers,
	}
}

// recorded gives o's runner a sampling schedule, so every pass it makes
// records its stream and replays the sealed recording, the way a
// sampling campaign's full-detail cells run. Jobs submitted with
// full-detail configs stay full detail: the schedule samples only the
// figures in the sampled set, and RunAll jobs only by their own Config.
func recorded(o RunnerOptions) RunnerOptions {
	o.Sampling = sample.Default()
	return o
}

// fig4Jobs builds the Figure-4 grid for a runner's DB workloads.
func fig4Jobs(r *Runner) []Job {
	var jobs []Job
	for _, c := range lookupFigure("fig4").cells(r) {
		jobs = append(jobs, c.job)
	}
	return jobs
}

// TestRunAllParallelMatchesSequential is the harness's headline
// determinism property: a parallel RunAll over the Figure-4 grid with
// trace replay must produce byte-identical Result/Stats to the
// sequential live path, in input order — and so must a live RunAll,
// where each (workload, layout) executes once and feeds all of its
// configs.
func TestRunAllParallelMatchesSequential(t *testing.T) {
	// Sequential reference: one worker, no record/replay, one Run (a
	// one-cell live pass) per job.
	seq := NewRunner(harnessOpts(1))
	var want []*Result
	for _, j := range fig4Jobs(seq) {
		res, err := seq.Run(context.Background(), j.Workload, j.Config)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}

	check := func(name string, r *Runner) {
		t.Helper()
		jobs := fig4Jobs(r)
		got, err := r.RunAll(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: RunAll returned %d results, want %d", name, len(got), len(want))
		}
		for i := range got {
			// Results come back in input order.
			if got[i].Workload != jobs[i].Workload.Name || got[i].Config != jobs[i].Config.Label() {
				t.Fatalf("%s: result %d is (%s, %s), want (%s, %s)", name,
					i, got[i].Workload, got[i].Config, jobs[i].Workload.Name, jobs[i].Config.Label())
			}
			// Byte-identical measurements: replayed and fanned-out
			// streams give identical cycles (and every other statistic)
			// to direct execution.
			a, err := json.Marshal(want[i])
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(got[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%s: row %d (%s, %s) differs from sequential:\nseq: %s\ngot: %s",
					name, i, got[i].Workload, got[i].Config, a, b)
			}
			if want[i].CPU.Cycles != got[i].CPU.Cycles {
				t.Errorf("%s: row %d cycles: direct %d vs %d", name, i, want[i].CPU.Cycles, got[i].CPU.Cycles)
			}
		}
	}
	// Parallel replay path: many workers (even on one CPU this
	// exercises the concurrent interleavings under -race).
	check("parallel replay", NewRunner(recorded(harnessOpts(8))))
	check("live fan-out", NewRunner(harnessOpts(2)))
}

// TestPassSourceRule pins how a pass picks its source. On a runner
// without a sampling schedule the Figure-4 grid runs every pass live and
// records nothing; with a schedule (its jobs still full detail) each of
// the grid's eight (workload, layout) streams is recorded once — the
// profile passes included — and every pass replays a recording.
func TestPassSourceRule(t *testing.T) {
	for _, schedule := range []bool{false, true} {
		opts := harnessOpts(2)
		if schedule {
			opts = recorded(opts)
		}
		opts.Obs = obs.New()
		r := NewRunner(opts)
		if _, err := r.RunAll(context.Background(), fig4Jobs(r)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := opts.Obs.Spans.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var parsed struct {
			TraceEvents []struct {
				Name string            `json:"name"`
				Args map[string]string `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
			t.Fatal(err)
		}
		records, sources := 0, map[string]int{}
		for _, ev := range parsed.TraceEvents {
			switch ev.Name {
			case "record":
				records++
			case "replay":
				sources[ev.Args["source"]]++
			}
		}
		wantRecords, wantSource := 0, "live"
		if schedule {
			wantRecords, wantSource = 8, "recording"
		}
		if records != wantRecords || len(sources) != 1 || sources[wantSource] == 0 {
			t.Errorf("schedule=%v: %d recordings and pass sources %v, want %d and only %q",
				schedule, records, sources, wantRecords, wantSource)
		}
	}
}

// TestRunAllDeduplicates: duplicate jobs in one batch resolve to the
// same cached *Result, computed once, from a recording and live. A later
// RunAll of the same job is served from that cache — and still settles
// in the progress tracker: every job ends in a terminal state.
func TestRunAllDeduplicates(t *testing.T) {
	for _, live := range []bool{false, true} {
		opts := harnessOpts(4)
		if !live {
			opts = recorded(opts)
		}
		opts.Obs = obs.New()
		r := NewRunner(opts)
		w := WiscProf(r.opts.DB)
		cfg := Config{Layout: LayoutO5}
		jobs := []Job{{w, cfg}, {w, cfg}, {w, cfg}, {w, cfg}}
		results, err := r.RunAll(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(results); i++ {
			if results[i] != results[0] {
				t.Fatalf("live=%v: duplicate job %d got a distinct result", live, i)
			}
		}
		again, err := r.RunAll(context.Background(), jobs[:1])
		if err != nil {
			t.Fatal(err)
		}
		if again[0] != results[0] {
			t.Fatalf("live=%v: repeated job got a distinct result", live)
		}
		snap := opts.Obs.Progress.Snapshot()
		for _, j := range snap.Jobs {
			switch obs.JobState(j.State) {
			case obs.JobExecuted, obs.JobReplayed, obs.JobResumed, obs.JobFailed:
			default:
				t.Errorf("live=%v: job %s/%s never settled: counts=%v",
					live, j.Workload, j.Config, snap.Counts)
			}
		}
	}
}

// TestConfigFingerprintDisambiguates: configs that share a display
// label but differ in non-Label fields (the RunAheadM sweep) must not
// alias in the result cache.
func TestConfigFingerprintDisambiguates(t *testing.T) {
	r := NewRunner(harnessOpts(1))
	w := WiscProf(r.opts.DB)
	a := Config{Layout: LayoutOM, Prefetcher: PrefRunAheadNL, Degree: 4, RunAheadM: 1}
	b := Config{Layout: LayoutOM, Prefetcher: PrefRunAheadNL, Degree: 4, RunAheadM: 16}
	if a.Label() != b.Label() {
		t.Fatalf("labels differ: %q vs %q — test premise broken", a.Label(), b.Label())
	}
	ra, err := r.Run(context.Background(), w, a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := r.Run(context.Background(), w, b)
	if err != nil {
		t.Fatal(err)
	}
	if ra == rb {
		t.Fatal("RunAheadM variants aliased to one cached result")
	}
	if ra.CPU.Cycles == rb.CPU.Cycles {
		t.Errorf("RunAheadM 1 and 16 measured identical cycles %d — suspicious", ra.CPU.Cycles)
	}
}

// TestConcurrentFigureGenerators runs two overlapping figure
// generators concurrently against one runner (the AllFigures shape)
// and checks the shared cells resolve to the same cached results as a
// fresh sequential generation.
func TestConcurrentFigureGenerators(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	conc := NewRunner(harnessOpts(8))
	figs, err := conc.runFigures(context.Background(), []string{"fig6", "fig7", "fig8"})
	if err != nil {
		t.Fatal(err)
	}

	ref := NewRunner(harnessOpts(1))
	want6, err := ref.Figure6(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(want6)
	b, _ := json.Marshal(figs[0])
	if !bytes.Equal(a, b) {
		t.Error("concurrent fig6 differs from sequential fig6")
	}
	// fig7's O5+OM+NL_4 cell is shared with fig6; both must reference
	// the same cached result.
	var from6, from7 *Result
	for _, row := range figs[0].Rows {
		if row.Workload == "wisc-prof" && row.Config == "O5+OM+NL_4" {
			from6 = row.Result
		}
	}
	for _, row := range figs[1].Rows {
		if row.Workload == "wisc-prof" && row.Config == "O5+OM+NL_4" {
			from7 = row.Result
		}
	}
	if from6 == nil || from7 == nil || from6 != from7 {
		t.Error("shared (workload, config) cell not deduplicated across concurrent figures")
	}
}

// TestOnePlanPerFigureSet: after the DB profile, AllFigures makes one
// pass per (workload, layout) stream of its figures, one worker takes
// the passes in cost order (cells times the workload's event count,
// where a workload no pass has run yet counts as the largest one seen),
// and the figures are byte-identical at one worker and at the default
// count.
func TestOnePlanPerFigureSet(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var want []byte
	for _, workers := range []int{1, 0} {
		opts := harnessOpts(workers)
		opts.Obs = obs.New()
		r := NewRunner(opts)
		if _, err := r.DBProfile(context.Background()); err != nil {
			t.Fatal(err)
		}
		known := maps.Clone(r.events)
		figs, err := r.AllFigures(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var md bytes.Buffer
		for _, f := range figs {
			md.WriteString(f.Markdown())
		}
		if want == nil {
			want = md.Bytes()
		} else if !bytes.Equal(md.Bytes(), want) {
			t.Errorf("workers=%d: figures differ from the one-worker run", workers)
		}

		// The streams the plan holds.
		plan := map[string]bool{}
		for _, id := range PaperFigureIDs() {
			for _, c := range r.cellsOf(lookupFigure(id)) {
				plan[c.job.Workload.Name+"/"+c.job.Config.Layout.String()] = true
			}
		}
		passes := figurePasses(t, opts.Obs)
		seen := map[string]int{}
		for _, p := range passes {
			seen[p.stream]++
		}
		for s := range plan {
			if seen[s] != 1 {
				t.Errorf("workers=%d: stream %s ran in %d passes, want 1", workers, s, seen[s])
			}
		}
		if workers != 1 {
			continue
		}
		var largest int64
		for _, n := range known {
			largest = max(largest, n)
		}
		var order []string
		prev := int64(-1)
		for _, p := range passes {
			if !plan[p.stream] {
				continue // a CPU2000 profile pass, run for its OM image
			}
			events, ok := known[p.workload]
			if !ok {
				events = largest
			}
			cost := int64(p.cells) * events
			order = append(order, fmt.Sprintf("%s %d", p.stream, cost))
			if prev >= 0 && cost > prev {
				t.Errorf("passes did not start in cost order: %v", order)
				break
			}
			prev = cost
		}
	}
}

// figurePass is one replay span of a figure plan.
type figurePass struct {
	workload, stream string
	cells            int
}

// figurePasses returns the replay spans that started inside the
// campaign's figure span, in start order.
func figurePasses(t *testing.T, o *obs.Observability) []figurePass {
	t.Helper()
	var buf bytes.Buffer
	if err := o.Spans.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	type span struct {
		Name string            `json:"name"`
		Ts   int64             `json:"ts"`
		Args map[string]string `json:"args"`
	}
	var parsed struct {
		TraceEvents []span `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	evs := parsed.TraceEvents
	slices.SortStableFunc(evs, func(a, b span) int { return cmp.Compare(a.Ts, b.Ts) })
	var passes []figurePass
	inFigure := false
	for _, ev := range evs {
		switch {
		case ev.Name == "figure":
			inFigure = true
		case ev.Name == "replay" && inFigure:
			cells, err := strconv.Atoi(ev.Args["cells"])
			if err != nil {
				t.Fatal(err)
			}
			passes = append(passes, figurePass{ev.Args["workload"], ev.Args["workload"] + "/" + ev.Args["layout"], cells})
		}
	}
	return passes
}
