package cgp

// Kernel-throughput regression guard: re-measures the optimized
// kernel's speedup over the frozen refsim baseline and fails if it
// has dropped more than 20% below kernelReplaySpeedup. The guard
// compares speedup ratios, not raw events/s — both arms run in the
// same process on the same machine, so the ratio cancels host speed
// and stays meaningful on CI runners that are much slower than the
// machine that measured the baseline.
//
// Gated behind CGP_BENCH_GUARD because a loaded machine can distort
// even a ratio; CI runs it in a dedicated step:
//
//	CGP_BENCH_GUARD=1 go test -run TestKernelThroughputGuard -count=1 .

import (
	"os"
	"testing"
	"time"

	"cgp/internal/cpu"
	"cgp/internal/prefetch"
	"cgp/internal/refsim"
)

// kernelReplaySpeedup is the optimized kernel's replay events/s over
// refsim's, measured on wisc-large-1 at WiscN=800 (harnessBenchOpts),
// layout O5, prefetcher NL_4, GOMAXPROCS=1, each arm timed as the
// fastest of many whole-trace replays (BenchmarkKernelReplay over
// BenchmarkKernelReplayBaseline at -benchtime 2s). It is a constant
// so that no benchmark run can move the floor the guard enforces.
const kernelReplaySpeedup = 1.644

// guardRegressionTolerance: fail only when the measured speedup falls
// more than 20% below kernelReplaySpeedup. Noise on shared runners
// moves the ratio a few percent; losing a fifth of the kernel
// optimizations' benefit is a real regression.
const guardRegressionTolerance = 0.80

// guardBest returns the fastest of n runs of f — the same
// minimum-of-many-replays estimator the kernel benchmarks report as
// Mevents/s-best (see benchKernelReplay): the min converges on the
// code's cost while the mean absorbs scheduler preemptions.
func guardBest(t *testing.T, n int, f func() error) time.Duration {
	t.Helper()
	var best time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); best == 0 || d < best {
			best = d
		}
	}
	return best
}

func TestKernelThroughputGuard(t *testing.T) {
	if os.Getenv("CGP_BENCH_GUARD") == "" {
		t.Skip("set CGP_BENCH_GUARD=1 to run the kernel-throughput regression guard")
	}
	rec := kernelBenchRecording(t)
	// The baseline arm decodes the original record format, re-encoded
	// here outside the timed region.
	raw, err := refsim.EncodeV1(rec)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 3
	optimized := guardBest(t, iters, func() error {
		c := cpu.New(cpu.DefaultConfig(), prefetch.NewNL(4))
		if err := rec.Replay(c); err != nil {
			return err
		}
		c.Finish()
		return nil
	})
	reference := guardBest(t, iters, func() error {
		c := refsim.New(cpu.DefaultConfig(), prefetch.NewNL(4))
		if err := refsim.Replay(raw, c); err != nil {
			return err
		}
		c.Finish()
		return nil
	})

	speedup := reference.Seconds() / optimized.Seconds()
	floor := guardRegressionTolerance * kernelReplaySpeedup
	t.Logf("kernel replay speedup %.2fx (optimized %v vs refsim %v); baseline %.3fx, floor %.3fx",
		speedup, optimized, reference, kernelReplaySpeedup, floor)
	if speedup < floor {
		t.Errorf("kernel throughput regressed: measured %.2fx speedup over refsim, below %.3fx (80%% of the %.3fx baseline)",
			speedup, floor, kernelReplaySpeedup)
	}
}
