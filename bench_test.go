package cgp

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"cgp/internal/cache"
	"cgp/internal/core"
	"cgp/internal/cpu"
	"cgp/internal/isa"
	"cgp/internal/prefetch"
	"cgp/internal/program"
	"cgp/internal/trace"
	"cgp/internal/units"
	"cgp/internal/workload"
)

// benchRunner runs the figures at a reduced (but non-trivial) scale so
// the full suite completes in minutes. Paper-scale numbers come from
// cmd/experiments.
func benchRunner() *Runner {
	return NewRunner(RunnerOptions{
		DB: DBOptions{
			WiscN: 1500, Quantum: 7, Seed: 42, BufferFrames: 8192,
			TPCH: workload.TPCHScale{Suppliers: 16, Customers: 80, Parts: 120, Orders: 320, MaxLines: 5},
		},
		Seed: 42,
	})
}

// reportFigure surfaces the figure's headline ratios as benchmark
// metrics.
func reportFigure(b *testing.B, fig *Figure, metrics map[string]func(*Figure) float64) {
	b.Helper()
	for name, fn := range metrics {
		b.ReportMetric(fn(fig), name)
	}
}

// BenchmarkFigure4 regenerates the O5 / OM / CGP cycle comparison.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		fig, err := r.Figure4(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, fig, map[string]func(*Figure) float64{
			"speedup/OM":      func(f *Figure) float64 { return f.GeoSpeedup("O5+OM") },
			"speedup/CGP4":    func(f *Figure) float64 { return f.GeoSpeedup("O5+CGP_4") },
			"speedup/OM+CGP4": func(f *Figure) float64 { return f.GeoSpeedup("O5+OM+CGP_4") },
		})
	}
}

// BenchmarkFigure5 regenerates the CGHC size sweep.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		fig, err := r.Figure5(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, fig, map[string]func(*Figure) float64{
			"speedup/CGHC-2K+32K": func(f *Figure) float64 { return f.GeoSpeedup("CGHC-2K+32K") },
			"speedup/CGHC-Inf":    func(f *Figure) float64 { return f.GeoSpeedup("CGHC-Inf") },
		})
	}
}

// BenchmarkFigure6 regenerates the NL vs CGP comparison.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		fig, err := r.Figure6(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, fig, map[string]func(*Figure) float64{
			"speedup/OM+NL4":  func(f *Figure) float64 { return f.GeoSpeedup("O5+OM+NL_4") },
			"speedup/OM+CGP4": func(f *Figure) float64 { return f.GeoSpeedup("O5+OM+CGP_4") },
			"speedup/perfect": func(f *Figure) float64 { return f.GeoSpeedup("perf-Icache") },
		})
	}
}

// BenchmarkFigure7 regenerates the I-cache miss comparison.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		fig, err := r.Figure7(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, fig, map[string]func(*Figure) float64{
			"missfrac/OM":      func(f *Figure) float64 { return f.MeanMissFraction("O5+OM") },
			"missfrac/OM+NL4":  func(f *Figure) float64 { return f.MeanMissFraction("O5+OM+NL_4") },
			"missfrac/OM+CGP4": func(f *Figure) float64 { return f.MeanMissFraction("O5+OM+CGP_4") },
		})
	}
}

// BenchmarkFigure8 regenerates the prefetch effectiveness breakdown.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		fig, err := r.Figure8(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, fig, map[string]func(*Figure) float64{
			"useful/NL4":  func(f *Figure) float64 { return f.MeanUsefulFraction("O5+OM+NL_4") },
			"useful/CGP4": func(f *Figure) float64 { return f.MeanUsefulFraction("O5+OM+CGP_4") },
		})
	}
}

// BenchmarkFigure9 regenerates the CGP portion split.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		fig, err := r.Figure9(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, fig, map[string]func(*Figure) float64{
			"useful/NL-portion":   func(f *Figure) float64 { return f.MeanUsefulFraction("CGP_4/NL-portion") },
			"useful/CGHC-portion": func(f *Figure) float64 { return f.MeanUsefulFraction("CGP_4/CGHC-portion") },
		})
	}
}

// BenchmarkFigure10 regenerates the CPU2000 study.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		fig, err := r.Figure10(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, fig, map[string]func(*Figure) float64{
			"speedup/gcc+CGP4": func(f *Figure) float64 {
				for _, row := range f.RowsFor("gcc") {
					if row.Config == "O5+OM+CGP_4" {
						return row.Speedup
					}
				}
				return 0
			},
			"speedup/gzip+CGP4": func(f *Figure) float64 {
				for _, row := range f.RowsFor("gzip") {
					if row.Config == "O5+OM+CGP_4" {
						return row.Speedup
					}
				}
				return 0
			},
		})
	}
}

// BenchmarkRunAheadNL regenerates the §5.6 ablation.
func BenchmarkRunAheadNL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		fig, err := r.RunAheadAblation(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, fig, map[string]func(*Figure) float64{
			"speedup/RANL4-vs-NL4": func(f *Figure) float64 { return f.GeoSpeedup("O5+OM+RANL_4") },
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// instructions per wall-second for the full DB pipeline under CGP.
func BenchmarkSimulatorThroughput(b *testing.B) {
	opts := benchRunner().opts
	w := workload.WiscLarge2(opts.DB)
	reg := w.NewRegistry()
	img := program.LayoutO5(reg)
	b.ResetTimer()
	var instrs units.Instrs
	for i := 0; i < b.N; i++ {
		c, _ := (Config{Layout: LayoutO5, Prefetcher: PrefCGP, Degree: 4}).NewCPU(nil)
		if err := w.Run(img, c); err != nil {
			b.Fatal(err)
		}
		instrs = c.Finish().Instructions
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// ---- microbenchmarks of the hot structures ----

func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New[struct{}](cache.Config{Name: "b", SizeBytes: 32 * 1024, Assoc: 2, LineBytes: 32})
	for i := 0; i < 2048; i++ {
		c.Insert(cache.Line(i), struct{}{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(cache.Line(i & 4095))
	}
}

func BenchmarkCGHCAccess(b *testing.B) {
	p := core.New(core.Config{Lines: 4, L1Bytes: 2048, L2Bytes: 32 * 1024})
	sink := func(prefetch.Request) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		caller := isa.Addr(0x400000 + (i&127)*0x200)
		callee := isa.Addr(0x500000 + (i&63)*0x200)
		p.OnCall(callee, caller, sink)
		p.OnReturn(caller, callee, sink)
	}
}

func BenchmarkTracerSynthesis(b *testing.B) {
	reg := program.NewRegistry()
	main := reg.Register("main", 2000)
	leaf := reg.Register("leaf", 400)
	img := program.LayoutO5(reg)
	tr := trace.NewTracer(img, trace.Discard, 1)
	tr.Enter(main)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Enter(leaf)
		tr.Work(40)
		tr.Exit()
	}
}

func BenchmarkCPUConsume(b *testing.B) {
	c := cpu.New(cpu.DefaultConfig(), prefetch.NewNL(4))
	ev := trace.Event{Kind: trace.KindRun, Addr: 0x400000, N: 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Addr = 0x400000 + isa.Addr((i&1023)*32)
		c.Event(ev)
	}
}

// ---- harness benchmarks: record/replay + parallel fan-out ----

// harnessBenchOpts is a small scale so a full AllFigures suite fits in
// one benchmark iteration.
func harnessBenchOpts(workers int) RunnerOptions {
	return RunnerOptions{
		DB: DBOptions{
			WiscN: 800, Quantum: 7, Seed: 42, BufferFrames: 8192,
			TPCH: workload.TPCHScale{Suppliers: 12, Customers: 60, Parts: 90, Orders: 240, MaxLines: 4},
		},
		Seed:    42,
		Workers: workers,
	}
}

// harnessBench collects wall-clock and throughput per benchmark for
// BENCH_harness.json (written by TestMain after the run).
var harnessBench = struct {
	sync.Mutex
	entries map[string]*harnessBenchEntry
}{entries: map[string]*harnessBenchEntry{}}

type harnessBenchEntry struct {
	WallSeconds  float64 `json:"wall_seconds"`
	Events       int64   `json:"simulated_events"`
	EventsPerSec float64 `json:"events_per_sec"`
}

func recordHarnessBench(name string, wall time.Duration, events int64) {
	harnessBench.Lock()
	defer harnessBench.Unlock()
	harnessBench.entries[name] = &harnessBenchEntry{
		WallSeconds:  wall.Seconds(),
		Events:       events,
		EventsPerSec: float64(events) / wall.Seconds(),
	}
}

// figureEvents counts simulated events across the distinct results of
// a figure set (rows share cached results; count each once).
func figureEvents(figs []*Figure) int64 {
	seen := map[*Result]bool{}
	var events int64
	for _, f := range figs {
		for _, row := range f.Rows {
			if row.Result != nil && !seen[row.Result] {
				seen[row.Result] = true
				events += row.Result.Trace.Events
			}
		}
	}
	return events
}

func benchAllFigures(b *testing.B, name string, workers int) {
	var events int64
	for i := 0; i < b.N; i++ {
		r := NewRunner(harnessBenchOpts(workers))
		figs, err := r.AllFigures(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		events = figureEvents(figs)
	}
	wall := b.Elapsed() / time.Duration(b.N)
	recordHarnessBench(name, wall, events)
	b.ReportMetric(float64(events)/wall.Seconds()/1e6, "Mevents/s")
}

// BenchmarkAllFiguresSequential runs one pass at a time. The figures
// are full detail, so each drain executes its (workload, layout) live —
// the DB engine / CPU2000 generators — and feeds every cell queued on
// that hub from the one execution.
func BenchmarkAllFiguresSequential(b *testing.B) {
	benchAllFigures(b, "allfigures_sequential", 1)
}

// BenchmarkAllFiguresParallel is the same campaign with GOMAXPROCS
// passes in flight.
func BenchmarkAllFiguresParallel(b *testing.B) {
	benchAllFigures(b, "allfigures_parallel", 0)
}

// benchFig4Workload runs one workload through the six Figure-4 configs
// as a single RunAll batch — the harness's actual execution path — so
// the replay arm coalesces all configs into one decode pass.
func benchFig4Workload(b *testing.B, name string, opts RunnerOptions) {
	var events int64
	for i := 0; i < b.N; i++ {
		r := NewRunner(opts)
		var jobs []Job
		for _, j := range fig4Jobs(r) {
			if j.Workload.Name == "wisc-large-1" {
				jobs = append(jobs, j)
			}
		}
		results, err := r.RunAll(context.Background(), jobs)
		if err != nil {
			b.Fatal(err)
		}
		events = 0
		for _, res := range results {
			events += res.Trace.Events
		}
	}
	wall := b.Elapsed() / time.Duration(b.N)
	recordHarnessBench(name, wall, events)
	b.ReportMetric(float64(events)/wall.Seconds()/1e6, "Mevents/s")
}

// BenchmarkFig4RowReexecute executes wisc-large-1 live once per
// layout, each execution feeding that layout's three configs.
func BenchmarkFig4RowReexecute(b *testing.B) {
	benchFig4Workload(b, "fig4row_reexecute", harnessBenchOpts(1))
}

// BenchmarkFig4RowReplay records wisc-large-1 once per layout and
// replays it into each config: its runner has a sampling schedule,
// which its full-detail jobs do not use, so its passes replay.
func BenchmarkFig4RowReplay(b *testing.B) {
	benchFig4Workload(b, "fig4row_replay", recorded(harnessBenchOpts(1)))
}

// TestMain writes BENCH_harness.json after a harness benchmark run and
// BENCH_sampling.json after a sampling benchmark run.
func TestMain(m *testing.M) {
	code := m.Run()
	writeSamplingBench()
	harnessBench.Lock()
	defer harnessBench.Unlock()
	if len(harnessBench.entries) > 0 {
		out := map[string]any{
			"scale":      "WiscN=800 (harnessBenchOpts)",
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"bench":      harnessBench.entries,
		}
		if seq, ok := harnessBench.entries["allfigures_sequential"]; ok {
			if par, ok := harnessBench.entries["allfigures_parallel"]; ok {
				out["allfigures_speedup"] = seq.WallSeconds / par.WallSeconds
			}
		}
		if re, ok := harnessBench.entries["fig4row_reexecute"]; ok {
			if rp, ok := harnessBench.entries["fig4row_replay"]; ok {
				out["replay_speedup"] = re.WallSeconds / rp.WallSeconds
			}
		}
		if data, err := json.MarshalIndent(out, "", "  "); err == nil {
			_ = os.WriteFile("BENCH_harness.json", append(data, '\n'), 0o644)
		}
	}
	os.Exit(code)
}
