package cgp

// Sampled-simulation benchmarks: full detailed replay vs sampled
// replay (skip / functional-warm / detailed tiers) of the same
// recorded workload, measured in the same process. The sampled arm
// reports its relative cycle error against the full arm next to its
// own CI, so throughput and accuracy travel together; DESIGN.md §13
// records a run.
//
//	GOMAXPROCS=1 go test -run '^$' -bench 'BenchmarkSampling' -benchtime 1x .

import (
	"sync"
	"testing"
	"time"

	"cgp/internal/cpu"
	"cgp/internal/prefetch"
	"cgp/internal/program"
	"cgp/internal/sample"
	"cgp/internal/trace"
	"cgp/internal/units"
)

// samplingBenchScale is many times the kernel-bench scale: the sampled
// tiers only pay off once a trace is long enough to hold many sampling
// periods (this one holds ~27), which is exactly the campaign regime
// sampling exists for.
const samplingBenchWiscN = 40000

// samplingBenchConfig is the schedule the sampled arm replays: one
// 8k-event window per 400k events with 4k detailed warm-up and 16k
// functional warming — 3% of the stream in detail, 4% functionally
// warmed, the rest skipped without decoding.
func samplingBenchConfig() sample.Config {
	return sample.Config{
		PeriodEvents:         400_000,
		FunctionalWarmEvents: 16_000,
		DetailWarmEvents:     4_000,
		WindowEvents:         8_000,
	}
}

var (
	samplingRecordingOnce sync.Once
	samplingRecordingVal  *trace.Recording
	samplingRecordingErr  error
)

// samplingBenchRecording memoizes one wisc-large-1 recording at
// sampling-bench scale, shared by both arms.
func samplingBenchRecording(b *testing.B) *trace.Recording {
	b.Helper()
	samplingRecordingOnce.Do(func() {
		opts := harnessBenchOpts(1)
		opts.DB.WiscN = samplingBenchWiscN
		w := WiscLarge1(opts.DB)
		img := program.LayoutO5(w.NewRegistry())
		r := trace.NewRecorder()
		if err := w.Run(img, r); err != nil {
			samplingRecordingErr = err
			return
		}
		samplingRecordingVal, samplingRecordingErr = r.Finish()
	})
	if samplingRecordingErr != nil {
		b.Fatal(samplingRecordingErr)
	}
	return samplingRecordingVal
}

var (
	samplingFullOnce   sync.Once
	samplingFullCycles int64
)

// samplingFullReference runs the full detailed simulation once (outside
// any timer) so the sampled arm can report its measured error even when
// the full benchmark arm is filtered out.
func samplingFullReference(b *testing.B) int64 {
	b.Helper()
	rec := samplingBenchRecording(b)
	samplingFullOnce.Do(func() {
		c := cpu.New(cpu.DefaultConfig(), prefetch.NewNL(4))
		if err := rec.Replay(c); err != nil {
			samplingRecordingErr = err
			return
		}
		samplingFullCycles = int64(c.Finish().Cycles)
	})
	if samplingRecordingErr != nil {
		b.Fatal(samplingRecordingErr)
	}
	return samplingFullCycles
}

// BenchmarkSamplingFullReplay is the reference arm: every event
// simulated in full detail.
func BenchmarkSamplingFullReplay(b *testing.B) {
	rec := samplingBenchRecording(b)
	b.ResetTimer()
	var best time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		c := cpu.New(cpu.DefaultConfig(), prefetch.NewNL(4))
		if err := rec.Replay(c); err != nil {
			b.Fatal(err)
		}
		c.Finish()
		if d := time.Since(t0); best == 0 || d < best {
			best = d
		}
	}
	b.ReportMetric(float64(rec.Events())/best.Seconds()/1e6, "Mevents/s-best")
}

// BenchmarkSamplingSampledReplay is the sampled arm: the identical
// logical event stream handled by the three-tier replay. Events/s
// counts the whole stream — skipped events are covered work, exactly
// as a campaign experiences it. The skip index is built in setup, like
// the recording itself: both are per-recording one-time costs the
// runner amortizes across a campaign's many cells.
func BenchmarkSamplingSampledReplay(b *testing.B) {
	rec := samplingBenchRecording(b)
	fullCycles := samplingFullReference(b)
	scfg := samplingBenchConfig()
	plan := scfg.Plan(rec.Events())
	// Prime the lazy skip index outside the timer.
	if err := rec.ReplaySampledInto([]trace.Span{{Kind: trace.SpanSkip, Events: rec.Events()}},
		discardSampled{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var best time.Duration
	var last *cpu.Stats
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		c := cpu.New(cpu.DefaultConfig(), prefetch.NewNL(4))
		c.EnableSampling()
		if err := rec.ReplaySampledInto(plan, c); err != nil {
			b.Fatal(err)
		}
		last = c.Finish()
		if d := time.Since(t0); best == 0 || d < best {
			best = d
		}
	}
	b.ReportMetric(float64(rec.Events())/best.Seconds()/1e6, "Mevents/s-best")
	sm := last.Sample
	b.ReportMetric(relErr(int64(sm.EstCycles), fullCycles), "rel-cycle-err")
	b.ReportMetric(sm.CycleRelCI, "rel-ci")
}

func relErr(est, full int64) float64 {
	if full == 0 {
		return 0
	}
	d := est - full
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(full)
}

// discardSampled drains a sampled replay without a CPU, used to prime
// the skip index.
type discardSampled struct{}

func (discardSampled) EventBatch([]trace.Event) {}
func (discardSampled) BeginSpan(trace.SpanKind) {}
func (discardSampled) SkipSpan(int64, units.Instrs) {
}
