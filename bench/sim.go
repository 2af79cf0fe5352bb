package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"cgp"
	"cgp/internal/core"
	"cgp/internal/cpu"
	"cgp/internal/obs"
	"cgp/internal/program"
	"cgp/internal/sample"
	"cgp/internal/workload"
)

// Pinned SHA-256 digests of the concatenated Figure.Markdown() output at
// seed 42 and the default sizes. A change that alters any figure byte
// fails the digest gate; a change meant to alter the figures updates the
// pin in the same commit.
const (
	pinFigures = "4eb7ad3f4c0307f5b60c8ae76710a9d6e19996cd20f83dcf82d168a5e323cde6"
	pinSampled = "b5a62076c82b1ae08efb39086c64dcb4781ec38606348385237b8c3a71692817"
)

// simSpec sizes a simulation workload.
type simSpec struct {
	// wiscN is the Wisconsin big-relation cardinality.
	wiscN int
	// sampled runs the cycle-comparison figures as sampled simulations
	// instead of AllFigures in full detail.
	sampled bool
	// pin is the figures' digest at seed 42, "" for unpinned sizes.
	pin string
}

func (s simSpec) options(seed int64) cgp.RunnerOptions {
	opts := cgp.RunnerOptions{DB: cgp.DBOptions{WiscN: s.wiscN, Seed: seed}, Seed: seed, Workers: workers()}
	if s.sampled {
		opts.Sampling = sample.Default()
	}
	return opts
}

// simRep is one set-up and figure-set reproduction on a fresh runner.
type simRep struct {
	setup, op time.Duration
	figs      []*cgp.Figure
	genErr    error
	digest    string
	rows      int
	degraded  int
	// results are the distinct cells the figures were built from.
	results []*cgp.Result
}

// simOnce builds a runner, collects the database profile (the set-up)
// and generates the workload's figure set (the operation).
func simOnce(ctx context.Context, spec simSpec, opts cgp.RunnerOptions) (*simRep, *cgp.Runner, error) {
	r := cgp.NewRunner(opts)
	t := now()
	if _, err := r.DBProfile(ctx); err != nil {
		return nil, nil, fmt.Errorf("db profile: %w", err)
	}
	rep := &simRep{setup: since(t)}
	t = now()
	rep.figs, rep.genErr = figureSet(ctx, r, spec.sampled)
	rep.op = since(t)
	h := sha256.New()
	seen := map[*cgp.Result]bool{}
	for _, f := range rep.figs {
		h.Write([]byte(f.Markdown()))
		rep.rows += len(f.Rows)
		rep.degraded += f.Degraded()
		for i := range f.Rows {
			if res := f.Rows[i].Result; res != nil && !seen[res] {
				seen[res] = true
				rep.results = append(rep.results, res)
			}
		}
	}
	rep.digest = hex.EncodeToString(h.Sum(nil))
	return rep, r, nil
}

// figureSet generates the workload's figures: every figure of the paper
// in full detail, or the cycle-comparison figures (the ones a sampled
// campaign samples) as sampled simulations. Like AllFigures the
// generators run concurrently and share the runner's caches.
func figureSet(ctx context.Context, r *cgp.Runner, sampled bool) ([]*cgp.Figure, error) {
	if !sampled {
		return r.AllFigures(ctx)
	}
	gens := []func(context.Context) (*cgp.Figure, error){r.Figure4, r.Figure5, r.Figure6, r.Figure10, r.RunAheadAblation}
	figs := make([]*cgp.Figure, len(gens))
	errs := make([]error, len(gens))
	var wg sync.WaitGroup
	for i, gen := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			figs[i], errs[i] = gen(ctx)
		}()
	}
	wg.Wait()
	var out []*cgp.Figure
	for _, f := range figs {
		if f != nil {
			out = append(out, f)
		}
	}
	return out, errors.Join(errs...)
}

// instructions returns the simulated instructions a rep's cells cover.
func (rep *simRep) instructions() float64 {
	var n float64
	for _, res := range rep.results {
		n += float64(res.CPU.Instructions)
	}
	return n
}

// figure returns the rep's figure with the given ID, or nil.
func (rep *simRep) figure(id string) *cgp.Figure {
	for _, f := range rep.figs {
		if f.ID == id {
			return f
		}
	}
	return nil
}

// simProbeRounds is how many probe rounds run between two reps: a few
// tenths of a second against a rep of several seconds.
const simProbeRounds = 2

// runSim measures a simulation workload: fresh-runner reps, with host
// speed probes between them, for the run's time, then the correctness
// gates, then (traced) the layer breakdown.
func runSim(ctx context.Context, name string, spec simSpec, cfg runConfig) (*outcome, error) {
	o := &outcome{}
	opts := spec.options(cfg.seed)
	probe := newSpeedProbe(opts.Workers)
	var reps []*simRep
	start := now()
	probe.run(simProbeRounds)
	// A rep starts only if it should end within the run's time, judged by
	// the one before it.
	for len(reps) == 0 || since(start)+reps[len(reps)-1].setup+reps[len(reps)-1].op <= cfg.seconds {
		rep, _, err := simOnce(ctx, spec, opts)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
		// Drop the finished runner's recordings before the next rep, so
		// each rep, and each probe, starts from the same heap.
		debug.FreeOSMemory()
		probe.run(simProbeRounds)
	}
	rss := peakRSSMB()

	speed := probe.speed()
	var setups, ops []time.Duration
	for _, rep := range reps {
		setups = append(setups, rep.setup)
		ops = append(ops, rep.op)
		o.attempted += int64(rep.rows)
		o.failed += int64(rep.degraded)
		if rep.genErr != nil {
			o.check("figure generation", false, "%v", rep.genErr)
		}
	}
	op := atRef(median(ops), speed)
	o.e2e = map[string]float64{
		"setup_s":     atRef(median(setups), speed).Seconds(),
		"p50_ms":      millis(op),
		"throughput":  float64(reps[0].rows) / op.Seconds(),
		"peak_rss_mb": rss,
	}
	o.note("%s: %d reps; host speed %.3f, probe round_s %s; raw setup_s %s; raw op_s %s; %d rows per rep, %.4g simulated instructions per rep",
		name, len(reps), speed, formatDurations(probe.times), formatDurations(setups), formatDurations(ops), reps[0].rows, reps[0].instructions())

	last := reps[len(reps)-1]
	stable := true
	for _, rep := range reps {
		stable = stable && rep.digest == last.digest
	}
	o.check("figures deterministic", stable, "%d reps, sha256 %s", len(reps), last.digest)
	if spec.pin != "" && cfg.seed == 42 {
		o.check("figures match pinned digest", last.digest == spec.pin, "got %s, pinned %s", last.digest, spec.pin)
	}
	if err := checkDirectCell(ctx, spec, opts, last, o); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := traceSim(ctx, name, spec, opts, median(ops), cfg, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// directCellLabel names the cell re-simulated without the runner.
const directCellLabel = "O5+CGP_4"

// checkDirectCell re-simulates O5+CGP_4 on wisc-large-1 directly, with
// no runner, recording or replay, and compares it with the runner's
// Figure 4 cell: equal stats for a full-detail run, or for a sampled
// run an estimate inside its own confidence interval of the full
// result.
func checkDirectCell(ctx context.Context, spec simSpec, opts cgp.RunnerOptions, rep *simRep, o *outcome) error {
	w := workload.WiscLarge1(opts.DB)
	row := findRow(rep.figure("fig4"), w.Name, directCellLabel)
	if row == nil || row.Result == nil {
		o.check("direct cell", false, "no %s/%s row in fig4", w.Name, directCellLabel)
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	gp := core.New(cgpConfig(4))
	c := cpu.New(cpu.DefaultConfig(), gp)
	if err := w.Run(program.LayoutO5(w.NewRegistry()), c); err != nil {
		return fmt.Errorf("direct %s run: %w", w.Name, err)
	}
	st := c.Finish()
	if !spec.sampled {
		same := reflect.DeepEqual(st, row.Result.CPU) && row.Result.CGPStats != nil && gp.Stats() == *row.Result.CGPStats
		o.check("direct cell equals runner", same, "%s %s: %d cycles direct, %d via runner",
			w.Name, directCellLabel, st.Cycles, row.Result.CPU.Cycles)
		return nil
	}
	sm := row.Result.CPU.Sample
	if sm == nil {
		o.check("sampled cell within CI", false, "%s %s was not sampled", w.Name, directCellLabel)
		return nil
	}
	if sm.Degenerate {
		o.note("%s %s has fewer than two sampling windows, so no CI to check", w.Name, directCellLabel)
		return nil
	}
	full := float64(st.Cycles)
	relErr := math.Abs(float64(sm.EstCycles)-full) / full
	o.check("sampled cell within CI", relErr <= sm.CycleRelCI, "%s %s: estimate %d vs full %d, error %.2f%% inside ±%.2f%%",
		w.Name, directCellLabel, int64(sm.EstCycles), int64(st.Cycles), 100*relErr, 100*sm.CycleRelCI)
	return nil
}

// cgpConfig is the runner's CGP_n with the default 2KB+32KB CGHC.
func cgpConfig(degree int) core.Config {
	hc := cgp.DefaultCGHC()
	return core.Config{Lines: degree, L1Bytes: hc.L1Bytes, L2Bytes: hc.L2Bytes}
}

// findRow returns the figure's row for (workload, config label).
func findRow(f *cgp.Figure, workload, label string) *cgp.Row {
	if f == nil {
		return nil
	}
	for i := range f.Rows {
		if f.Rows[i].Workload == workload && f.Rows[i].Config == label {
			return &f.Rows[i]
		}
	}
	return nil
}

// traceSim is the traced run of a simulation workload: one more rep
// with the runner's harness spans on, then the benchmark's own drive of
// Figure 4 through every layer. It writes spans.json and layers.json.
// untracedOp is the untraced median rep's raw time.
func traceSim(ctx context.Context, name string, spec simSpec, opts cgp.RunnerOptions, untracedOp time.Duration, cfg runConfig, o *outcome) error {
	spans := obs.NewSpanRecorder()
	topts := opts
	topts.Obs = &obs.Observability{Spans: spans}
	rep, r, err := simOnce(ctx, spec, topts)
	if err != nil {
		return err
	}
	prof, err := r.DBProfile(ctx)
	if err != nil {
		return err
	}
	layers := newLayers()
	layers["obs.tracing_overhead_pct"] = 100 * (rep.op.Seconds()/untracedOp.Seconds() - 1)
	sampleLayers(rep.results, layers)
	if err := driveSimLayers(ctx, spec, opts.DB, prof, rep.figure("fig4"), spans, layers, o); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := spans.WriteChromeTrace(&buf); err != nil {
		return err
	}
	if err := runnerLayers(buf.Bytes(), rep.setup+rep.op, opts.Workers, layers); err != nil {
		return err
	}
	o.layers = layers
	return writeTrace(cfg, name, o, map[string][]byte{"spans.json": buf.Bytes()})
}

// sampleLayers fills the sample.* metrics from a rep's cells. A
// full-detail cell counts as wholly detailed.
func sampleLayers(results []*cgp.Result, layers map[string]float64) {
	var events, skipped, detailed, windows, ci float64
	sampled := 0
	for _, res := range results {
		events += float64(res.Trace.Events)
		sm := res.CPU.Sample
		if sm == nil {
			detailed += float64(res.Trace.Events)
			continue
		}
		sampled++
		skipped += float64(sm.SkippedEvents)
		detailed += float64(sm.DetailedEvents())
		windows += float64(sm.Windows)
		ci += sm.CycleRelCI
	}
	layers["sample.skipped_frac"] = skipped / events
	layers["sample.detailed_frac"] = detailed / events
	if sampled > 0 {
		layers["sample.windows"] = windows / float64(sampled)
		layers["sample.ci_pct"] = 100 * ci / float64(sampled)
	}
}

// runnerLayers fills the runner.* metrics from the runner's harness
// spans in the exported Chrome trace.
func runnerLayers(chrome []byte, wall time.Duration, workers int, layers map[string]float64) error {
	var tr struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Dur  int64             `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &tr); err != nil {
		return fmt.Errorf("parse spans: %w", err)
	}
	var record, replay, verify time.Duration
	var cells, passes int
	for _, ev := range tr.TraceEvents {
		d := time.Duration(ev.Dur) * time.Microsecond
		switch {
		case ev.Cat == benchSpanCat: // the benchmark's own spans
		case ev.Name == "record":
			record += d
		case ev.Name == "replay" || ev.Name == "run":
			replay += d
			if n, err := strconv.Atoi(ev.Args["cells"]); err == nil {
				cells += n
				passes++
			}
		case ev.Name == "verify":
			verify += d
		}
	}
	layers["runner.record_s"] = record.Seconds()
	layers["runner.replay_s"] = replay.Seconds()
	layers["runner.verify_s"] = verify.Seconds()
	if passes > 0 {
		layers["runner.cells_per_replay"] = float64(cells) / float64(passes)
	}
	layers["runner.worker_util"] = (record + replay + verify).Seconds() / (wall.Seconds() * float64(workers))
	return nil
}
