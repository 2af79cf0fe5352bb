package cgp

// Kernel-throughput regression guard: re-measures the optimized
// kernel's speedup over the frozen refsim baseline and fails if it
// has dropped more than 20% below the kernel_replay_speedup recorded
// in BENCH_kernel.json. The guard compares speedup ratios, not raw
// events/s — both arms run in the same process on the same machine,
// so the ratio cancels host speed and stays meaningful on CI runners
// that are much slower than the machine that wrote the baseline.
//
// Gated behind CGP_BENCH_GUARD because a loaded machine can distort
// even a ratio; CI runs it in a dedicated step:
//
//	CGP_BENCH_GUARD=1 go test -run TestKernelThroughputGuard -count=1 .
//
// The distributed-campaign scaling guard (TestCampaignScalingGuard,
// same CGP_BENCH_GUARD gate, writes BENCH_campaign.json via its bench
// sibling) lives in internal/campaign rather than here: it spawns the
// test binary as campaign worker processes, which needs a TestMain
// hook, and this package's TestMain (bench_test.go) cannot take that
// role — package cgp cannot import internal/campaign back.

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"cgp/internal/cpu"
	"cgp/internal/prefetch"
	"cgp/internal/refsim"
)

// guardRegressionTolerance: fail only when the measured speedup falls
// more than 20% below the recorded baseline ratio. Noise on shared
// runners moves the ratio a few percent; losing a fifth of the kernel
// optimizations' benefit is a real regression.
const guardRegressionTolerance = 0.80

// guardBest returns the fastest of n runs of f — the same
// minimum-of-many-replays estimator BENCH_kernel.json itself uses
// (see benchKernelReplay): the min converges on the code's cost while
// the mean absorbs scheduler preemptions.
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
	data, err := os.ReadFile("BENCH_kernel.json")
	if err != nil {
		t.Fatalf("no baseline: %v (regenerate with: GOMAXPROCS=1 go test -run TestMain -bench BenchmarkKernel -benchtime 2s .)", err)
	}
	var baseline struct {
		Speedup float64 `json:"kernel_replay_speedup"`
	}
	if err := json.Unmarshal(data, &baseline); err != nil {
		t.Fatalf("BENCH_kernel.json: %v", err)
	}
	if baseline.Speedup <= 0 {
		t.Fatal("BENCH_kernel.json has no kernel_replay_speedup — regenerate it with both replay arms")
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
	floor := guardRegressionTolerance * baseline.Speedup
	t.Logf("kernel replay speedup %.2fx (optimized %v vs refsim %v); baseline %.2fx, floor %.2fx",
		speedup, optimized, reference, baseline.Speedup, floor)
	if speedup < floor {
		t.Errorf("kernel throughput regressed: measured %.2fx speedup over refsim, below %.2fx (80%% of the %.2fx baseline in BENCH_kernel.json)",
			speedup, floor, baseline.Speedup)
	}
}
