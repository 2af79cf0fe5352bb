// Command cgpbench is the repository's benchmark: it measures what
// reproducing the paper's figures costs in host time, and what a SQL
// client waits for when the engine is served over TCP, and breaks both
// down by layer. See README.md for the workloads, metrics and bounds.
//
//	sh bench/run.sh --workload figures --seed 42 --seconds 25 --trace 0
//
// With --workload empty every workload runs, each in its own child
// process. The last line of a single-workload run is one JSON object
// with the fields correct, attempted, failed and metrics; the lines
// before it repeat the metrics for people and name every check.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off, the times at the reference host speed (see
// hostspeed.go). For the simulation workloads one operation is a whole
// figure-set reproduction on a fresh runner, and throughput counts its
// figure rows; for the serving workloads it is one query round trip.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"throughput", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// reach reports 0.
var perLayer = []metricDef{
	{"runner.record_s", "s"},
	{"runner.replay_s", "s"},
	{"runner.verify_s", "s"},
	{"runner.cells_per_replay", "count"},
	{"runner.worker_util", "frac"},
	{"workload.ns_per_event", "ns"},
	{"trace.encode_ns_per_event", "ns"},
	{"trace.bytes_per_event", "B"},
	{"trace.decode_ns_per_event", "ns"},
	{"cpu.ns_per_event", "ns"},
	{"prefetch.ns_per_call", "ns"},
	{"prefetch.calls_per_kevent", "count"},
	{"prefetch.useful_frac", "frac"},
	{"prefetch.squash_frac", "frac"},
	{"core.cghc_hit_rate", "frac"},
	{"cache.l1i_mpki", "1/kinstr"},
	{"cache.l2_per_kinstr", "1/kinstr"},
	{"branch.mispredict_rate", "frac"},
	{"branch.ras_mispredict_rate", "frac"},
	{"sample.skipped_frac", "frac"},
	{"sample.detailed_frac", "frac"},
	{"sample.windows", "count"},
	{"sample.ci_pct", "%"},
	{"server.decode_us", "us"},
	{"server.admission_us", "us"},
	{"server.prep_us", "us"},
	{"server.execute_us", "us"},
	{"server.drain_us", "us"},
	{"server.capture_us", "us"},
	{"server.unstaged_us", "us"},
	{"net.gap_us", "us"},
	{"sql.parse_us", "us"},
	{"sql.plan_us", "us"},
	{"exec.run_us", "us"},
	{"storage.pool_hit_rate", "frac"},
	{"storage.disk_reads_per_query", "count"},
	{"storage.evictions_per_query", "count"},
	{"capture.committed", "count"},
	{"capture.drops", "count"},
	{"obs.tracing_overhead_pct", "%"},
}

// benchWorkload is one benchmark workload: a simulation campaign or a
// serving traffic mix.
type benchWorkload struct {
	name  string
	sim   *simSpec
	serve *serveSpec
}

// workloads are the benchmark's workloads at the sizes BENCHMARK.json
// describes; README.md gives the reason for each.
func workloads() []benchWorkload {
	return []benchWorkload{
		{name: "figures", sim: &simSpec{wiscN: 2000, pin: pinFigures}},
		{name: "sampled", sim: &simSpec{wiscN: 10000, sampled: true, pin: pinSampled}},
		{name: "serve-cached", serve: &serveSpec{wiscN: 2000, frames: 8192, perKind: 1000}},
		{name: "serve-spill", serve: &serveSpec{wiscN: 2000, frames: 64, perKind: 1000, capture: true}},
	}
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// out is the directory a traced run writes its files under.
	out string
}

// check is one correctness gate.
type check struct {
	name, detail string
	ok           bool
}

// outcome is everything one workload run measured and checked.
type outcome struct {
	attempted, failed int64
	e2e               map[string]float64
	layers            map[string]float64 // nil unless traced
	checks            []check
	notes             []string
}

// check records a correctness gate; a failed gate counts as a failed
// operation.
func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
	o.attempted++
	if !ok {
		o.failed++
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// newLayers returns a per-layer map with every metric at 0, the value a
// layer the workload does not reach reports.
func newLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cgpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs every workload, each in its own child process")
	seed := fs.Int64("seed", 42, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 25, "how long one run measures")
	traced := fs.Int("trace", 0, "1 also runs the workload with spans on and reports the per-layer metrics instead")
	out := fs.String("out", ".bench_build/trace", "directory a traced run writes its span and layer files under")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "cgpbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	if *name == "" {
		return runAll(stdout, stderr, "--seed", strconv.FormatInt(*seed, 10), "--seconds", strconv.Itoa(*seconds),
			"--trace", strconv.Itoa(*traced), "--out", *out)
	}
	var w *benchWorkload
	for _, cand := range workloads() {
		if cand.name == *name {
			w = &cand
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "cgpbench: unknown workload %q\n", *name)
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traced == 1, out: *out}
	fmt.Fprintf(stdout, "# cgpbench %s trace=%t seconds=%d %s\n", w.name, cfg.trace, *seconds, hostMeta(cfg.seed))
	o, err := runWorkload(context.Background(), *w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "cgpbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := report(stdout, w.name, o, cfg.trace); err != nil {
		fmt.Fprintf(stderr, "cgpbench: %s: %v\n", w.name, err)
		return 1
	}
	if o.failed > 0 {
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process.
func runWorkload(ctx context.Context, w benchWorkload, cfg runConfig) (*outcome, error) {
	if w.sim != nil {
		return runSim(ctx, w.name, *w.sim, cfg)
	}
	return runServe(ctx, w.name, *w.serve, cfg)
}

// runAll runs every workload in its own child process, so garbage
// collector state and peak RSS stay per workload, passing args to each.
// It fails if any child fails.
func runAll(stdout, stderr io.Writer, args ...string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "cgpbench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads() {
		cmd := exec.Command(self, append([]string{"--workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "cgpbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the checks, the metrics one a line, and the result
// object: the end-to-end metrics, or the per-layer ones when traced.
func report(w io.Writer, name string, o *outcome, traced bool) error {
	for _, n := range o.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, c := range o.checks {
		status := "ok"
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check %-4s %s: %s\n", status, c.name, c.detail)
	}
	defs, values := endToEnd, o.e2e
	if traced {
		defs, values = perLayer, o.layers
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%s %-28s %14.6g %s\n", name, d.name, v, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// hostMeta describes where and from what a number was measured.
func hostMeta(seed int64) string {
	host, _ := os.Hostname()
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("host=%s nproc=%d gomaxprocs=%d go=%s commit=%s seed=%d",
		host, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, seed)
}

// peakRSSMB returns the process's peak resident set size in MiB
// (getrusage reports KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// workers is the simulation workloads' parallelism: two runner workers,
// never more than the host has CPUs.
func workers() int {
	return min(2, runtime.NumCPU())
}

// millis and micros express a duration in the metric's unit.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// formatDurations renders a sample for a note line.
func formatDurations(ds []time.Duration) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = strconv.FormatFloat(d.Seconds(), 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}
