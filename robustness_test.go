package cgp

// Chaos tests for the fault-tolerant campaign machinery (DESIGN.md
// §11): panic isolation inside shared replay passes, corruption
// detection and rebuild, cancellation with partial results, transient
// singleflight eviction, and checkpoint/resume. Every fault is
// injected deterministically (internal/faultinject), so a failure here
// reproduces exactly. CI runs this file under -race.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cgp/internal/faultinject"
	"cgp/internal/obs"
	"cgp/internal/program"
	"cgp/internal/sample"
	"cgp/internal/trace"
)

// chaosOpts is the reduced scale shared by the chaos tests. The chaos
// suite corrupts recordings, so its runners record: their jobs are
// full-detail RunAll jobs and their figures (Figure 7, Figure 9 and the
// quantum sweep) are outside the default sampled set, so the sampling
// schedule only selects the source.
func chaosOpts(workers int) RunnerOptions {
	return recorded(harnessOpts(workers))
}

// o5Grid is a grid that stays on the O5 layout, so no cell depends on
// the profile run and corruption targets exactly one recording per
// workload.
func o5Grid(ws []*Workload) []Job {
	configs := []Config{
		{Layout: LayoutO5},
		{Layout: LayoutO5, Prefetcher: PrefNL, Degree: 4},
		{Layout: LayoutO5, Prefetcher: PrefCGP, Degree: 4},
	}
	var jobs []Job
	for _, w := range ws {
		for _, cfg := range configs {
			jobs = append(jobs, Job{Workload: w, Config: cfg})
		}
	}
	return jobs
}

// TestReplayHubPanicIsolation poisons one cell of a shared replay
// batch: that job must fail with an attributed *JobError carrying the
// panic value, while its batch mates — fed by the same decode pass —
// finish with results identical to an undisturbed runner's.
func TestReplayHubPanicIsolation(t *testing.T) {
	var logBuf bytes.Buffer
	opts := chaosOpts(4)
	opts.Obs = obs.New().AttachLog(&logBuf)
	r := NewRunner(opts)
	ws := r.DBWorkloads()[:2]
	jobs := o5Grid(ws)
	poisonW, poisonCfg := ws[0].Name, jobs[1].Config.withDefaults().Label()
	r.hooks.wrapConsumer = func(w *Workload, cfg Config, c trace.Consumer) trace.Consumer {
		if w.Name == poisonW && cfg.Label() == poisonCfg {
			return faultinject.PanicAfter(c, 1000, "injected-panic")
		}
		return c
	}
	results, err := r.RunAll(context.Background(), jobs)

	var camp *CampaignError
	if !errors.As(err, &camp) {
		t.Fatalf("RunAll error = %v, want *CampaignError", err)
	}
	if len(camp.Jobs) != 1 {
		t.Fatalf("%d jobs failed, want exactly the poisoned one: %v", len(camp.Jobs), camp.Jobs)
	}
	je := camp.Jobs[0]
	if je.Index != 1 || je.Workload != poisonW || je.Config != poisonCfg {
		t.Fatalf("failure attributed to %+v, want job 1 (%s, %s)", je, poisonW, poisonCfg)
	}
	if je.Panic != "injected-panic" || len(je.Stack) == 0 {
		t.Fatalf("JobError lacks panic value or stack: %+v", je)
	}
	if results[1] != nil {
		t.Fatal("failed job still has a result slot")
	}

	// Batch mates of the panicked cell saw the full stream: every
	// surviving result is byte-identical to a clean runner's.
	clean := NewRunner(chaosOpts(1))
	for i, j := range jobs {
		if i == 1 {
			continue
		}
		if results[i] == nil {
			t.Fatalf("job %d has no result but was not reported failed", i)
		}
		want, err := clean.Run(context.Background(), j.Workload, j.Config)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(want)
		b, _ := json.Marshal(results[i])
		if !bytes.Equal(a, b) {
			t.Errorf("job %d (%s, %s) diverged from clean run after batch-mate panic",
				i, j.Workload.Name, j.Config.Label())
		}
	}

	// The structured run log tells the same story: the poisoned cell
	// was queued and failed, and never reported executed; its batch
	// mates all settled.
	entries, lerr := obs.ValidateRunLog(bytes.NewReader(logBuf.Bytes()))
	if lerr != nil {
		t.Fatalf("run log fails validation: %v", lerr)
	}
	var sawQueued, sawFailed, sawExecuted bool
	settled := map[string]bool{}
	for _, e := range entries {
		if e.Workload == poisonW && e.Config == poisonCfg {
			switch obs.JobState(e.Event) {
			case obs.JobQueued:
				sawQueued = true
			case obs.JobFailed:
				sawFailed = true
			case obs.JobExecuted, obs.JobReplayed, obs.JobResumed:
				sawExecuted = true
			}
			continue
		}
		switch obs.JobState(e.Event) {
		case obs.JobExecuted, obs.JobReplayed, obs.JobResumed:
			settled[e.Workload+"/"+e.Config] = true
		}
	}
	if !sawQueued || !sawFailed {
		t.Errorf("run log missing lifecycle for poisoned cell: queued=%v failed=%v", sawQueued, sawFailed)
	}
	if sawExecuted {
		t.Error("run log reports the poisoned cell as settled")
	}
	for i, j := range jobs {
		if i == 1 {
			continue
		}
		key := j.Workload.Name + "/" + j.Config.withDefaults().Label()
		if !settled[key] {
			t.Errorf("run log never settled surviving cell %s", key)
		}
	}
}

// TestPanicInCellSetupFailsAlone runs a cell whose machine cannot be
// built (a 3 KB CGHC has a non-power-of-two set count, so core.New
// panics) beside a valid cell of the same pass: the invalid cell fails
// alone, with its workload and config named, and the valid one returns
// its result.
func TestPanicInCellSetupFailsAlone(t *testing.T) {
	r := NewRunner(harnessOpts(2))
	w := WiscProf(harnessOpts(2).DB)
	bad := Config{Layout: LayoutO5, Prefetcher: PrefCGP, Degree: 4, CGHC: CGHCConfig{L1Bytes: 3 * 1024}}
	jobs := []Job{{w, Config{Layout: LayoutO5, Prefetcher: PrefNL, Degree: 4}}, {w, bad}}
	results, err := r.RunAll(context.Background(), jobs)

	var camp *CampaignError
	if !errors.As(err, &camp) || len(camp.Jobs) != 1 {
		t.Fatalf("RunAll error = %v, want one failed job", err)
	}
	je := camp.Jobs[0]
	if je.Index != 1 || je.Workload != w.Name || je.Config != bad.Label() {
		t.Fatalf("failure attributed to job %d (%q, %q), want job 1 (%s, %s)",
			je.Index, je.Workload, je.Config, w.Name, bad.Label())
	}
	if msg, _ := je.Panic.(string); !strings.Contains(msg, "non-power-of-two") {
		t.Fatalf("JobError panic = %v, want core.New's geometry panic", je.Panic)
	}
	if results[0] == nil || results[0].Cycles() == 0 || results[1] != nil {
		t.Fatalf("results = %v, want the valid cell's result only", results)
	}
}

// withSampling gives every job a sampling schedule. A full-detail pass
// that records its stream feeds its cells from the record walk itself,
// so only sampled cells are sure to replay a sealed recording, the one
// a corruption hook has damaged.
func withSampling(jobs []Job) []Job {
	for i := range jobs {
		jobs[i].Config.Sampling = sample.Default()
	}
	return jobs
}

// TestCorruptionHealedByRebuild corrupts each workload's first sealed
// recording; the campaign must detect the bad checksum, rebuild the
// recording from source and finish with clean-run results and no
// errors.
func TestCorruptionHealedByRebuild(t *testing.T) {
	r := NewRunner(chaosOpts(4))
	var firstSeals, seals atomic.Int64
	var mu sync.Mutex
	corrupted := map[string]bool{}
	r.hooks.afterRecord = func(w *Workload, layout Layout, rec *trace.Recording) {
		seals.Add(1)
		mu.Lock()
		first := !corrupted[recKey(w, layout)]
		corrupted[recKey(w, layout)] = true
		mu.Unlock()
		if first {
			firstSeals.Add(1)
			faultinject.Corrupt(rec, 99, 2)
		}
	}
	jobs := withSampling(o5Grid(r.DBWorkloads()[:2]))
	results, err := r.RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatalf("campaign failed despite retry budget: %v", err)
	}
	if firstSeals.Load() == 0 {
		t.Fatal("corruption hook never fired — test is vacuous")
	}
	if seals.Load() != 2*firstSeals.Load() {
		t.Fatalf("%d recordings sealed after %d corruptions, want one rebuild each: no cell replayed the corrupted bytes",
			seals.Load(), firstSeals.Load())
	}
	clean := NewRunner(chaosOpts(1))
	for i, j := range jobs {
		want, err := clean.Run(context.Background(), j.Workload, j.Config)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(want)
		b, _ := json.Marshal(results[i])
		if !bytes.Equal(a, b) {
			t.Errorf("job %d diverged from clean run after corruption+rebuild", i)
		}
	}
}

// TestPersistentCorruptionExhaustsBudget corrupts one workload's
// recording on every rebuild: its jobs must fail with the budget
// error, while the other workload's jobs — different recording — all
// complete.
func TestPersistentCorruptionExhaustsBudget(t *testing.T) {
	r := NewRunner(chaosOpts(4))
	ws := r.DBWorkloads()[:2]
	bad := ws[0].Name
	var seals atomic.Int64
	r.hooks.afterRecord = func(w *Workload, layout Layout, rec *trace.Recording) {
		if w.Name == bad {
			seals.Add(1)
			faultinject.Corrupt(rec, int64(seals.Load()), 2)
		}
	}
	jobs := withSampling(o5Grid(ws))
	results, err := r.RunAll(context.Background(), jobs)
	var camp *CampaignError
	if !errors.As(err, &camp) {
		t.Fatalf("RunAll error = %v, want *CampaignError", err)
	}
	if got := seals.Load(); got != 3 { // initial record + 2 rebuilds
		t.Fatalf("recording sealed %d times, want 3 (budget 2)", got)
	}
	for i, j := range jobs {
		if j.Workload.Name == bad {
			if results[i] != nil {
				t.Fatalf("job %d on the corrupt workload has a result", i)
			}
		} else if results[i] == nil {
			t.Fatalf("job %d on the healthy workload lost its result", i)
		}
	}
	if !strings.Contains(camp.Error(), "retry budget exhausted") {
		t.Fatalf("error does not name the exhausted budget: %v", camp)
	}
	var ce *trace.CorruptionError
	if !errors.As(camp.Jobs[0], &ce) {
		t.Fatalf("budget error does not unwrap to the corruption: %v", camp.Jobs[0])
	}
}

// TestCancellationPartialResults cancels the campaign from inside one
// simulation: the campaign returns every already-completed result,
// attributes cancellations to the rest, and — because cancellation is
// transient — a later Run on the same runner recomputes successfully.
func TestCancellationPartialResults(t *testing.T) {
	r := NewRunner(chaosOpts(2))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ws := r.DBWorkloads()[:2]
	var fired atomic.Bool
	r.hooks.wrapConsumer = func(w *Workload, cfg Config, c trace.Consumer) trace.Consumer {
		if fired.CompareAndSwap(false, true) {
			return faultinject.CancelAfter(c, 5000, cancel)
		}
		return c
	}
	jobs := o5Grid(ws)
	results, err := r.RunAll(ctx, jobs)
	var camp *CampaignError
	if !errors.As(err, &camp) {
		t.Fatalf("RunAll error = %v, want *CampaignError", err)
	}
	failed := map[int]bool{}
	for _, je := range camp.Jobs {
		failed[je.Index] = true
		if !isCancellation(je) && je.Panic == nil {
			t.Fatalf("job %d failed with non-cancellation error: %v", je.Index, je)
		}
	}
	if len(failed) == 0 {
		t.Fatal("cancellation failed no jobs — hook never fired?")
	}
	for i := range jobs {
		if !failed[i] && results[i] == nil {
			t.Fatalf("job %d neither failed nor has a result", i)
		}
	}

	// Transient eviction: the canceled cells retry cleanly on the same
	// runner once the hook is gone and the context is live.
	r.hooks.wrapConsumer = nil
	for i, j := range jobs {
		if !failed[i] {
			continue
		}
		if _, err := r.Run(context.Background(), j.Workload, j.Config); err != nil {
			t.Fatalf("job %d still failing after cancellation was lifted: %v", i, err)
		}
	}
}

// TestCanceledContextEvicted: a Run under an already-canceled context
// fails fast with the context error — and must not poison the cache
// for a later Run with a live context (satellite fix: the singleflight
// layer used to cache errors forever).
// TestCancelRecordingStopsWithinOneBatch: runWorkload polls the
// context once per batch on the record path as on the live one, so a
// recording cancelled at event n hands its recorder at most one more
// batch (the 512 events a Batcher holds) and fails with the context's
// error.
func TestCancelRecordingStopsWithinOneBatch(t *testing.T) {
	const n, batch = 5000, 512
	w := WiscProf(DBOptions{Seed: 11, BufferFrames: 2048})
	img := program.LayoutO5(w.NewRegistry())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := trace.NewRecorder()
	c := faultinject.CancelAfter(rec, n, cancel)
	err := runWorkload(ctx, w, img, func(evs []trace.Event) error {
		c.EventBatch(evs)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runWorkload = %v, want context.Canceled", err)
	}
	rg, err := rec.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := rg.Events(); got < n || got > n+batch {
		t.Fatalf("recorder took %d events after a cancel at event %d, want at most %d", got, n, n+batch)
	}
}

func TestCanceledContextEvicted(t *testing.T) {
	r := NewRunner(chaosOpts(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := r.DBWorkloads()[0]
	cfg := Config{Layout: LayoutO5}
	if _, err := r.Run(ctx, w, cfg); !isCancellation(err) {
		t.Fatalf("Run under canceled ctx = %v, want cancellation", err)
	}
	res, err := r.Run(context.Background(), w, cfg)
	if err != nil || res == nil {
		t.Fatalf("Run after eviction = (%v, %v), want success", res, err)
	}
}

// TestPanicErrorStaysCached: a deterministic panic is NOT transient —
// retrying would re-execute the same failing simulation, so the cached
// *JobError is served to later callers.
func TestPanicErrorStaysCached(t *testing.T) {
	r := NewRunner(chaosOpts(1))
	calls := 0
	r.hooks.wrapConsumer = func(w *Workload, cfg Config, c trace.Consumer) trace.Consumer {
		calls++
		return faultinject.PanicAfter(c, 100, "det-panic")
	}
	w := r.DBWorkloads()[0]
	cfg := Config{Layout: LayoutO5}
	_, err1 := r.Run(context.Background(), w, cfg)
	_, err2 := r.Run(context.Background(), w, cfg)
	var je *JobError
	if !errors.As(err1, &je) || je.Panic != "det-panic" {
		t.Fatalf("first Run = %v, want panic JobError", err1)
	}
	if !errors.As(err2, &je) {
		t.Fatalf("second Run = %v, want the cached JobError", err2)
	}
	if calls != 1 {
		t.Fatalf("simulation executed %d times, want 1 (panic errors stay cached)", calls)
	}
}

// TestCheckpointResume runs a campaign with a checkpoint directory,
// then replays it on a fresh runner whose every simulation would
// panic: success proves each cell was served from its checkpoint, and
// the results must be byte-identical.
func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	opts := chaosOpts(4)
	opts.CheckpointDir = dir

	first := NewRunner(opts)
	jobs := o5Grid(first.DBWorkloads()[:2])
	want, err := first.RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	resumed := NewRunner(opts)
	resumed.hooks.wrapConsumer = func(w *Workload, cfg Config, c trace.Consumer) trace.Consumer {
		return faultinject.PanicAfter(c, 1, "should-not-simulate")
	}
	got, err := resumed.RunAll(context.Background(), o5Grid(resumed.DBWorkloads()[:2]))
	if err != nil {
		t.Fatalf("resume simulated instead of loading checkpoints: %v", err)
	}
	for i := range want {
		a, _ := json.Marshal(want[i])
		b, _ := json.Marshal(got[i])
		if !bytes.Equal(a, b) {
			t.Errorf("job %d differs between original and resumed run", i)
		}
	}
}

// TestCheckpointScopeMismatch: checkpoints from one campaign scale
// must never satisfy another — a different Wisconsin cardinality or
// seed changes the scope fingerprint and reads as a miss.
func TestCheckpointScopeMismatch(t *testing.T) {
	dir := t.TempDir()
	opts := chaosOpts(1)
	opts.CheckpointDir = dir
	a := NewRunner(opts)
	w := a.DBWorkloads()[0]
	cfg := Config{Layout: LayoutO5}
	if _, err := a.Run(context.Background(), w, cfg); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.loadCheckpoint(w, cfg.withDefaults()); !ok {
		t.Fatal("same-scope checkpoint not served")
	}

	other := opts
	other.DB.WiscN = opts.DB.WiscN * 2
	b := NewRunner(other)
	if _, ok := b.loadCheckpoint(b.DBWorkloads()[0], cfg.withDefaults()); ok {
		t.Fatal("checkpoint served across campaign scopes")
	}

	seeded := opts
	seeded.Seed = opts.Seed + 1
	c := NewRunner(seeded)
	if _, ok := c.loadCheckpoint(c.DBWorkloads()[0], cfg.withDefaults()); ok {
		t.Fatal("checkpoint served across seeds")
	}
}

// TestCheckpointCorruptionIsMiss: a truncated or bit-flipped
// checkpoint file degrades to a cache miss (recompute), never an error
// or a trusted bad result.
func TestCheckpointCorruptionIsMiss(t *testing.T) {
	dir := t.TempDir()
	opts := chaosOpts(1)
	opts.CheckpointDir = dir
	r := NewRunner(opts)
	w := r.DBWorkloads()[0]
	cfg := Config{Layout: LayoutO5}.withDefaults()
	want, err := r.Run(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := r.checkpointPath(cellKey(w.Name, cfg))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the result payload.
	mut := bytes.Replace(data, []byte(`"Cycles":`), []byte(`"CyCleS":`), 1)
	if bytes.Equal(mut, data) {
		t.Fatal("mutation did not apply — payload shape changed?")
	}
	if err := writeFileAtomic(path, mut); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.loadCheckpoint(w, cfg); ok {
		t.Fatal("corrupted checkpoint accepted")
	}
	// Truncation is also a miss.
	if err := writeFileAtomic(path, data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.loadCheckpoint(w, cfg); ok {
		t.Fatal("truncated checkpoint accepted")
	}
	// A fresh runner recomputes the identical result.
	clean := NewRunner(chaosOpts(1))
	got, err := clean.Run(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.CPU.Cycles != want.CPU.Cycles {
		t.Fatal("recomputed result differs from original")
	}
}

// TestFailFastCancelsRemainder: with FailFast, a panic in one job
// cancels jobs that have not finished; the returned CampaignError
// still attributes each failure and completed results are kept.
func TestFailFastCancelsRemainder(t *testing.T) {
	opts := chaosOpts(1) // one worker serializes batches, so later groups see the breaker
	opts.FailFast = true
	r := NewRunner(opts)
	ws := r.DBWorkloads()[:3]
	r.hooks.wrapConsumer = func(w *Workload, cfg Config, c trace.Consumer) trace.Consumer {
		if w.Name == ws[0].Name {
			return faultinject.PanicAfter(c, 1, "fail-fast-trigger")
		}
		return c
	}
	jobs := make([]Job, 0, 3)
	for _, w := range ws {
		jobs = append(jobs, Job{Workload: w, Config: Config{Layout: LayoutO5}})
	}
	_, err := r.RunAll(context.Background(), jobs)
	var camp *CampaignError
	if !errors.As(err, &camp) {
		t.Fatalf("RunAll error = %v, want *CampaignError", err)
	}
	if len(camp.Jobs) == 0 {
		t.Fatal("no failures recorded")
	}
	sawPanic := false
	for _, je := range camp.Jobs {
		if je.Panic != nil {
			sawPanic = true
		} else if !isCancellation(je) {
			t.Fatalf("unexpected failure kind under fail-fast: %v", je)
		}
	}
	if !sawPanic {
		t.Fatal("triggering panic not attributed")
	}
}

// TestFigureDegradesInsteadOfAborting: a poisoned cell leaves its
// figure with explicit degraded rows (rendered in the markdown), not a
// missing figure, under every row rule: a grid, Figure 9's NL/CGHC
// portion split and the quantum sweep's row per quantum.
func TestFigureDegradesInsteadOfAborting(t *testing.T) {
	cases := []struct {
		name string
		gen  func(*Runner, context.Context) (*Figure, error)
		// The poisoned cell, and its rows as "workload/config".
		workload, config string
		degraded         []string
	}{
		{"grid", (*Runner).Figure7, "wisc-large-1", "O5+OM+NL_4",
			[]string{"wisc-large-1/O5+OM+NL_4"}},
		{"portions", (*Runner).Figure9, "wisc-large-1", "O5+OM+CGP_4",
			[]string{"wisc-large-1/CGP_4/NL-portion", "wisc-large-1/CGP_4/CGHC-portion"}},
		{"quantum", (*Runner).QuantumSweep, "wisc-large-2/q28", "O5+OM",
			[]string{"wisc-large-2/quantum-28"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRunner(chaosOpts(4))
			r.hooks.wrapConsumer = func(w *Workload, cfg Config, c trace.Consumer) trace.Consumer {
				if w.Name == tc.workload && cfg.Label() == tc.config {
					return faultinject.PanicAfter(c, 500, "row-poison")
				}
				return c
			}
			fig, err := tc.gen(r, context.Background())
			if err == nil {
				t.Fatal("degraded figure returned no error")
			}
			if fig == nil {
				t.Fatal("partial failure dropped the whole figure")
			}
			md := fig.Markdown()
			if !strings.Contains(md, "failed: panic: row-poison") || !strings.Contains(md, "**Degraded:**") {
				t.Fatalf("degraded row not rendered explicitly:\n%s", md)
			}
			var degraded []string
			for _, row := range fig.Rows {
				if row.Failed() {
					degraded = append(degraded, row.Workload+"/"+row.Config)
				} else if row.Result == nil {
					t.Fatal("healthy row lost its result")
				}
			}
			if !slices.Equal(degraded, tc.degraded) {
				t.Fatalf("degraded rows %q, want %q", degraded, tc.degraded)
			}
		})
	}
}
