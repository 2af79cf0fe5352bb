package cgp

import (
	"context"
	"reflect"
	"testing"

	"cgp/internal/cpu"
	"cgp/internal/refsim"
	"cgp/internal/sample"
	"cgp/internal/trace"
	"cgp/internal/workload"
)

// catalogueConfigs returns every config the figure catalogue's cells
// use, paper figures and extensions alike, once each.
func catalogueConfigs(r *Runner) []Config {
	var cfgs []Config
	seen := map[string]bool{}
	for i := range figureCatalogue {
		for _, c := range r.cellsOf(&figureCatalogue[i]) {
			if fp := c.job.Config.fingerprint(); !seen[fp] {
				seen[fp] = true
				cfgs = append(cfgs, c.job.Config)
			}
		}
	}
	return cfgs
}

// standaloneStats simulates one job the way cgpsim and the bench do: a
// CPU built as the runner builds a cell's, fed the workload's recording
// through its own front end, on its own.
func standaloneStats(t *testing.T, r *Runner, j Job) *cpu.Stats {
	t.Helper()
	ctx := context.Background()
	cfg := j.Config.withDefaults()
	b, err := r.prepare(ctx, j.Workload, hubCell{cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.recordingFor(ctx, j.Workload, cfg.Layout)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.ReplaySampledInto(cfg.Sampling.Plan(rec.Events()), b.cpu); err != nil {
		t.Fatal(err)
	}
	return b.cpu.Finish()
}

// refsimStats replays j's recording through refsim, the frozen
// event-by-event model, which keeps no attribution.
func refsimStats(t *testing.T, r *Runner, j Job) *cpu.Stats {
	t.Helper()
	ctx := context.Background()
	cfg := j.Config.withDefaults()
	b, err := r.prepare(ctx, j.Workload, hubCell{cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.recordingFor(ctx, j.Workload, cfg.Layout)
	if err != nil {
		t.Fatal(err)
	}
	ref := refsim.New(b.cpu.Config(), b.cpu.Prefetcher())
	if err := rec.Replay(trace.ConsumerFunc(func(evs []trace.Event) {
		for _, ev := range evs {
			ref.Event(ev)
		}
	})); err != nil {
		t.Fatal(err)
	}
	return ref.Finish()
}

// TestSharedFrontendMatchesStandalone runs every catalogue config of a
// DB workload, a CPU2000 program and a tagged capture of served queries
// as shared passes, where one front end feeds every cell, and again as
// standalone CPUs, each behind its own front end. The full Stats must
// be equal, attribution and query-attribution tables included, in full
// detail and under a sampled schedule (windows and estimates included).
// Both arms merge the front end's counters into Stats the same way, so
// one cell per workload is also checked against refsim.
func TestSharedFrontendMatchesStandalone(t *testing.T) {
	ctx := context.Background()
	path, _ := sealScriptedCapture(t, capturedScript, 1<<32)
	opts := harnessOpts(2)
	opts.Attribution = true
	r := NewRunner(opts)
	captured, err := LoadTrace(path, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	// gzip with a quarter of its calls: the same program, a stream
	// short enough to simulate every catalogue config four ways under
	// -race.
	spec, err := workload.CPU2000ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	spec.CallsPerPhase /= 4
	ws := []*Workload{WiscLarge1(opts.DB), workload.NewCPU2000(spec, opts.Seed), captured}
	cfgs := catalogueConfigs(r)
	schedule := sample.Config{
		PeriodEvents: 8_000, FunctionalWarmEvents: 1_000, DetailWarmEvents: 500, WindowEvents: 1_000,
		RandomOffset: true, Seed: 3,
	}
	for _, sampled := range []bool{false, true} {
		var jobs []Job
		for _, w := range ws {
			for _, cfg := range cfgs {
				if sampled {
					cfg.Sampling = schedule
				}
				jobs = append(jobs, Job{w, cfg})
			}
		}
		shared, err := r.RunAll(ctx, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i, j := range jobs {
			got, want := shared[i].CPU, standaloneStats(t, r, j)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s (sampled %v): shared front end diverged from a standalone CPU\nshared:     %+v\nstandalone: %+v",
					j.Workload.Name, j.Config.Label(), sampled, got, want)
			}
			if sampled && (got.Sample == nil || got.Sample.Windows < 2 || got.Sample.SkippedEvents == 0 ||
				got.Sample.FastForwardedEvents == 0) {
				t.Errorf("%s %s: the schedule did not exercise every tier: %+v", j.Workload.Name, j.Config.Label(), got.Sample)
			}
		}
		if sampled {
			continue
		}
		checked := 0
		for i, j := range jobs {
			if j.Config != (Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4}) {
				continue
			}
			checked++
			got := *shared[i].CPU
			if got.Attribution == nil || (j.Workload == captured && got.QueryAttr == nil) {
				t.Errorf("%s %s: attribution tables missing", j.Workload.Name, j.Config.Label())
			}
			got.Attribution, got.QueryAttr = nil, nil
			if want := refsimStats(t, r, j); !reflect.DeepEqual(&got, want) {
				t.Errorf("%s %s: shared front end diverged from refsim\nshared: %+v\nrefsim: %+v",
					j.Workload.Name, j.Config.Label(), &got, want)
			}
		}
		if checked != len(ws) {
			t.Errorf("checked %d cells against refsim, want one per workload", checked)
		}
	}
}
