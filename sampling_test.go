package cgp

// Differential validation of sampled simulation: the sampled estimator
// must track the full detailed simulation within its own reported
// confidence interval and under a 3% hard cap, across the prefetcher
// configuration space and multiple workload seeds — and sampled
// results must be byte-identical across worker counts and
// checkpoint/resume, exactly like full results.

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"cgp/internal/faultinject"
	"cgp/internal/sample"
	"cgp/internal/trace"
)

// samplingTestOpts is the differential-suite scale: large enough for
// the schedule below to place many measurement windows, small enough
// that 9 configs × 3 seeds × 2 arms stay fast under -race.
func samplingTestOpts(seed int64, workers int) RunnerOptions {
	return RunnerOptions{
		DB:      DBOptions{WiscN: 2000, Seed: seed},
		Seed:    seed,
		Workers: workers,
	}
}

// samplingTestSchedule measures a far larger fraction of the stream
// than a production campaign schedule would: the differential suite
// exists to bound estimator error tightly, not to demonstrate
// throughput (BenchmarkSamplingSampledReplay does that at campaign
// scale).
// Random offsets matter at this scale — the Wisconsin queries have
// per-tuple periodic structure that fixed window offsets alias with.
func samplingTestSchedule(seed int64) sample.Config {
	return sample.Config{
		PeriodEvents:         9_000,
		FunctionalWarmEvents: 500,
		DetailWarmEvents:     2_500,
		WindowEvents:         5_000,
		RandomOffset:         true,
		Seed:                 uint64(seed),
	}
}

// samplingDiffConfigs spans the configuration space the campaign
// grids exercise: both layouts, every hardware prefetcher, both CGP
// degrees, the demand-priority policy variant, and the perfect
// I-cache bound.
func samplingDiffConfigs() []Config {
	return []Config{
		{Layout: LayoutO5},
		{Layout: LayoutOM},
		{Layout: LayoutOM, Prefetcher: PrefNL, Degree: 4},
		{Layout: LayoutOM, Prefetcher: PrefRunAheadNL, Degree: 4, RunAheadM: 4},
		{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 2},
		{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4},
		{Layout: LayoutO5, Prefetcher: PrefCGP, Degree: 4},
		{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4, DemandPriority: true},
		{Layout: LayoutO5, PerfectICache: true},
	}
}

// TestSampledDifferential is the accuracy contract: for every config
// and seed, the sampled cycle estimate must sit within its own
// reported 95% CI of the full measurement AND within 3% absolute,
// instruction counts must match exactly (they are counted in every
// tier, never estimated), and the tiers must all actually run.
func TestSampledDifferential(t *testing.T) {
	for _, seed := range []int64{7, 42, 99} {
		r := NewRunner(samplingTestOpts(seed, 1))
		w := WiscLarge1(r.opts.DB)
		for _, cfg := range samplingDiffConfigs() {
			full, err := r.Run(context.Background(), w, cfg)
			if err != nil {
				t.Fatalf("seed %d %s full: %v", seed, cfg.Label(), err)
			}
			scfg := cfg
			scfg.Sampling = samplingTestSchedule(seed)
			smp, err := r.Run(context.Background(), w, scfg)
			if err != nil {
				t.Fatalf("seed %d %s sampled: %v", seed, cfg.Label(), err)
			}

			if full.CPU.Sample != nil {
				t.Fatalf("seed %d %s: full run carries sample stats — results aliased across fingerprints", seed, cfg.Label())
			}
			sm := smp.CPU.Sample
			if sm == nil {
				t.Fatalf("seed %d %s: sampled run has no sample stats", seed, cfg.Label())
			}
			if sm.Degenerate || sm.Windows < 2 {
				t.Fatalf("seed %d %s: degenerate sampled run (%d windows) — schedule too coarse for this trace",
					seed, cfg.Label(), sm.Windows)
			}
			if sm.SkippedEvents == 0 || sm.FastForwardedEvents == 0 || sm.MeasuredEvents == 0 {
				t.Errorf("seed %d %s: a tier never ran (skip=%d ff=%d measured=%d)",
					seed, cfg.Label(), sm.SkippedEvents, sm.FastForwardedEvents, sm.MeasuredEvents)
			}
			if smp.CPU.Instructions != full.CPU.Instructions {
				t.Errorf("seed %d %s: instructions %d sampled vs %d full — must be exact in every tier",
					seed, cfg.Label(), smp.CPU.Instructions, full.CPU.Instructions)
			}
			if int64(smp.CPU.Cycles) >= int64(full.CPU.Cycles) {
				t.Errorf("seed %d %s: sampled detailed cycles %d not below full %d — skip tier did no work",
					seed, cfg.Label(), smp.CPU.Cycles, full.CPU.Cycles)
			}

			e := relErr(int64(sm.EstCycles), int64(full.CPU.Cycles))
			if e > 0.03 {
				t.Errorf("seed %d %s: relative cycle error %.4f exceeds 3%% hard cap (est %d, full %d)",
					seed, cfg.Label(), e, int64(sm.EstCycles), full.CPU.Cycles)
			}
			if e > sm.CycleRelCI {
				t.Errorf("seed %d %s: relative cycle error %.4f outside reported 95%% CI ±%.4f (%d windows)",
					seed, cfg.Label(), e, sm.CycleRelCI, sm.Windows)
			}
		}
	}
}

// sampledGrid builds the sampled differential grid as RunAll jobs.
func sampledGrid(r *Runner, seed int64) []Job {
	w := WiscLarge1(r.opts.DB)
	var jobs []Job
	for _, cfg := range samplingDiffConfigs() {
		cfg.Sampling = samplingTestSchedule(seed)
		jobs = append(jobs, Job{Workload: w, Config: cfg})
	}
	return jobs
}

// TestSampledWorkerInvariance: a sampled campaign is byte-identical
// whether it runs on one worker or many, or one cell per pass —
// including with seeded random window offsets, which must depend only
// on the schedule seed, never on scheduling order.
func TestSampledWorkerInvariance(t *testing.T) {
	const seed = 42
	one := NewRunner(samplingTestOpts(seed, 1))
	want, err := one.RunAll(context.Background(), sampledGrid(one, seed))
	if err != nil {
		t.Fatal(err)
	}
	many := NewRunner(samplingTestOpts(seed, 8))
	got, err := many.RunAll(context.Background(), sampledGrid(many, seed))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		a, _ := json.Marshal(want[i])
		b, _ := json.Marshal(got[i])
		if !bytes.Equal(a, b) {
			t.Errorf("job %d (%s) differs between 1 and 8 workers:\n1: %s\n8: %s",
				i, want[i].Config, a, b)
		}
	}
	// Each job alone through Run on a fresh runner: a one-cell pass
	// against the coalesced campaign's shared ones.
	alone := NewRunner(samplingTestOpts(seed, 1))
	for i, j := range sampledGrid(alone, seed) {
		res, err := alone.Run(context.Background(), j.Workload, j.Config)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(want[i])
		b, _ := json.Marshal(res)
		if !bytes.Equal(a, b) {
			t.Errorf("job %d (%s) differs between a coalesced pass and a one-cell pass:\ncoalesced: %s\nalone: %s",
				i, want[i].Config, a, b)
		}
	}
}

// TestSampledCheckpointResume: sampled cells checkpoint and resume
// like full cells — a fresh runner whose every simulation would panic
// must serve the whole sampled grid byte-identically from disk. The
// sampling schedule is part of the config fingerprint, so sampled
// checkpoints can never satisfy full runs or vice versa.
func TestSampledCheckpointResume(t *testing.T) {
	const seed = 7
	dir := t.TempDir()
	opts := samplingTestOpts(seed, 4)
	opts.CheckpointDir = dir

	first := NewRunner(opts)
	want, err := first.RunAll(context.Background(), sampledGrid(first, seed))
	if err != nil {
		t.Fatal(err)
	}

	resumed := NewRunner(opts)
	resumed.hooks.wrapConsumer = func(w *Workload, cfg Config, c trace.Consumer) trace.Consumer {
		return faultinject.PanicAfter(c, 1, "should-not-simulate")
	}
	got, err := resumed.RunAll(context.Background(), sampledGrid(resumed, seed))
	if err != nil {
		t.Fatalf("resume simulated instead of loading checkpoints: %v", err)
	}
	for i := range want {
		a, _ := json.Marshal(want[i])
		b, _ := json.Marshal(got[i])
		if !bytes.Equal(a, b) {
			t.Errorf("job %d (%s) differs between original and resumed run", i, want[i].Config)
		}
	}

	// The unsampled twin of a checkpointed sampled config is a cache
	// miss: the resumed runner (which cannot simulate) must fail it.
	w := WiscLarge1(resumed.opts.DB)
	if _, ok := resumed.loadCheckpoint(w, samplingDiffConfigs()[0].withDefaults()); ok {
		t.Fatal("full-run checkpoint served from a sampled campaign")
	}
}
