// Command experiments regenerates every table and figure of the
// paper's evaluation section and writes a markdown report comparing
// paper-reported numbers with measured ones.
//
// The campaign is fault tolerant: Ctrl-C, a -timeout expiry or a
// failed simulation degrades the report (failed rows are marked, and
// the exit status is non-zero) instead of discarding completed work,
// and -checkpoint persists finished simulations so a re-run resumes
// where the previous one stopped.
//
// The campaign is observable: -debug-addr serves /metrics, /progress
// and net/http/pprof while it runs; -trace-out exports the harness
// schedule as Chrome trace-event JSON (load it in Perfetto);
// -log-json records every job lifecycle event as JSON Lines; and
// -attribution appends a per-function prefetch attribution table per
// database workload. None of these change the report body — wall-clock
// observability is quarantined from deterministic output.
//
// The campaign can be sampled: -sample runs the cycle-comparison
// figures (fig4/5/6/10, sec5.6 and the cycle ablations) as sampled
// simulations — periodic detailed windows over a mostly skipped or
// functionally warmed stream — reporting estimated cycles with 95%
// confidence intervals at a fraction of the cost. Figures whose
// numbers are whole-run prefetch counters (fig7/8/9) stay full-detail
// unless -sample-figures names them.
// Sampled rows are rendered as `~value ±CI` and bannered per figure.
//
// The checked-in EXPERIMENTS.md is this command's report at the
// defaults with -timing=false, which leaves out the run time so the
// report depends only on the code.
//
// Usage:
//
//	experiments -o EXPERIMENTS.md -timing=false
//	experiments -o EXPERIMENTS.md [-wisc-n 10000] [-checkpoint DIR] [-timeout 30m] [-v]
//	experiments -sample [-sample-period 1000000] [-sample-window 32000]
//	experiments -debug-addr localhost:6060 -trace-out campaign.trace.json -log-json run.jsonl
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"cgp"
	"cgp/internal/obs"
	"cgp/internal/sample"
)

func main() {
	var (
		out        = flag.String("o", "EXPERIMENTS.md", "output markdown file ('-' for stdout)")
		wiscN      = flag.Int("wisc-n", 10000, "Wisconsin big-relation cardinality")
		seed       = flag.Int64("seed", 42, "workload seed")
		workers    = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = sequential)")
		checkpoint = flag.String("checkpoint", "", "directory persisting completed simulations; re-runs skip them")
		failFast   = flag.Bool("fail-fast", false, "cancel the remaining jobs after the first failure")
		timeout    = flag.Duration("timeout", 0, "overall campaign deadline (0 = none)")
		timing     = flag.Bool("timing", true, "include wall-clock run time in the report header (disable for byte-identical re-runs)")
		verbose    = flag.Bool("v", true, "progress output")

		debugAddr   = flag.String("debug-addr", "", "serve /metrics, /progress and net/http/pprof on this address while the campaign runs")
		traceOut    = flag.String("trace-out", "", "write harness spans as Chrome trace-event JSON (loadable in Perfetto)")
		logJSON     = flag.String("log-json", "", "write job lifecycle events as JSON Lines to this file")
		attribution = flag.Bool("attribution", false, "collect per-function prefetch attribution and append its table to the report")

		sampleFigures = flag.String("sample-figures", "", "with -sample: comma-separated figure IDs to sample, or none (default: the cycle-comparison figures)")
	)
	sampling := sample.RegisterFlags(flag.CommandLine, "run the cycle-comparison figures as sampled simulations (estimated cycles ±CI, much faster); counter figures (fig7/8/9) stay full-detail")
	flag.Parse()
	smp := sampling(*seed)

	// A bad -sample-figures is a usage error, caught before any work
	// starts: exit status 2, as the flag package uses.
	var sampledFigures []string
	if *sampleFigures != "" {
		ids, err := cgp.ParseFigureIDs(*sampleFigures)
		if err == nil && !smp.Enabled() {
			err = fmt.Errorf("needs -sample (figures: %s)",
				strings.Join(append(cgp.PaperFigureIDs(), cgp.ExtensionFigureIDs()...), ", "))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: -sample-figures:", err)
			os.Exit(2)
		}
		sampledFigures = ids
	}

	o := obs.New()
	var logFile *os.File
	if *logJSON != "" {
		f, err := os.Create(*logJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		logFile = f
		o.AttachLog(f)
	}
	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s (/metrics, /progress, /debug/pprof/)\n", ln.Addr())
		go http.Serve(ln, obs.NewDebugMux(o))
	}

	opts := cgp.RunnerOptions{
		DB: cgp.DBOptions{WiscN: *wiscN, Seed: *seed}, Seed: *seed,
		Workers: *workers, CheckpointDir: *checkpoint, FailFast: *failFast,
		Obs: o, Attribution: *attribution,
		Sampling: smp, SampledFigures: sampledFigures,
	}
	if *verbose {
		opts.Log = func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) }
	}
	r := cgp.NewRunner(opts)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now() //cgplint:ignore detrand wall-clock run duration is harness log metadata, not simulated data
	var failures []error
	figs, err := r.AllFigures(ctx)
	if err != nil {
		failures = append(failures, err)
	}
	fan, fanErr := r.CallFanoutStats(ctx)
	if fanErr != nil {
		failures = append(failures, fmt.Errorf("cgp: fanout stats: %w", fanErr))
	}
	exts, err := r.ExtensionFigures(ctx)
	if err != nil {
		failures = append(failures, err)
	}

	var b strings.Builder
	//cgplint:ignore detrand the header's total-run-time line is explicitly run metadata, not a measured figure
	writeHeader(&b, *wiscN, *seed, time.Since(start), *timing)
	writeDegradedBanner(&b, figs, exts, failures)
	writeSummary(&b, figs, fan, fanErr == nil)
	for _, f := range figs {
		b.WriteString(f.Markdown())
		b.WriteString("\n")
		if f.ID == "fig4" || f.ID == "fig6" || f.ID == "fig7" || f.ID == "fig10" {
			b.WriteString("```\n")
			b.WriteString(f.Chart())
			b.WriteString("```\n\n")
		}
	}
	b.WriteString(`## Extensions (beyond the paper's figures)

Ablations over the design choices §3 fixes without measurement: CGHC
associativity and entry width, the no-priority L2 FIFO, L1I-direct
prefetching, and the §6 software-CGP sketch.

`)
	for _, f := range exts {
		b.WriteString(f.Markdown())
		b.WriteString("\n")
	}
	if *attribution {
		b.WriteString(`## Per-function prefetch attribution (OM + CGP_4)

Which functions CGP actually helps: per-function coverage (fraction of
would-be misses served), accuracy (useful fraction of issues launched
on the function's behalf) and mean issue-to-use timeliness in cycles.
Derived entirely from deterministic simulator counters.

`)
		for _, w := range r.DBWorkloads() {
			tab, err := r.AttributionTable(ctx, w,
				cgp.Config{Layout: cgp.LayoutOM, Prefetcher: cgp.PrefCGP, Degree: 4}, 10)
			if err != nil {
				failures = append(failures, fmt.Errorf("cgp: attribution %s: %w", w.Name, err))
				continue
			}
			b.WriteString(tab.Markdown())
			b.WriteString("\n")
		}
	}

	if *out == "-" {
		fmt.Print(b.String())
	} else if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	} else {
		//cgplint:ignore detrand progress line on stderr; wall-clock timing never reaches the report body
		fmt.Fprintf(os.Stderr, "wrote %s (%d figures) in %s\n", *out, len(figs)+len(exts), time.Since(start).Round(time.Millisecond))
	}
	writeObsArtifacts(o, logFile, *traceOut)
	printJobSummary(o)
	if len(failures) > 0 {
		for _, err := range failures {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
		fmt.Fprintln(os.Stderr, "experiments: campaign degraded; completed work was kept (resume with -checkpoint)")
		os.Exit(1)
	}
}

// writeObsArtifacts flushes the run log and exports the Chrome trace,
// validating both against their schemas on the way out so a malformed
// artifact fails loudly here instead of inside a downstream viewer.
// Failures here never fail the campaign — observability is advisory.
func writeObsArtifacts(o *obs.Observability, logFile *os.File, traceOut string) {
	if logFile != nil {
		if err := o.Log.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: run log:", err)
		}
		if err := logFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: run log:", err)
		}
		f, err := os.Open(logFile.Name())
		if err == nil {
			_, verr := obs.ValidateRunLog(f)
			f.Close()
			err = verr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: run log validation:", err)
		}
	}
	if traceOut != "" {
		var buf bytes.Buffer
		if err := o.Spans.WriteChromeTrace(&buf); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: trace:", err)
			return
		}
		if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: trace validation:", err)
		}
		if err := os.WriteFile(traceOut, buf.Bytes(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: trace:", err)
			return
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d spans; open in Perfetto or chrome://tracing)\n", traceOut, o.Spans.Len())
	}
}

// printJobSummary reports how the campaign's cells were satisfied,
// distinguishing checkpoint-resumed cells from freshly simulated ones
// (and singleflight-coalesced and failed ones) so resume effectiveness
// is visible at a glance.
func printJobSummary(o *obs.Observability) {
	snap := o.Progress.Snapshot()
	if len(snap.Jobs) == 0 {
		return
	}
	executed := snap.Counts[string(obs.JobExecuted)]
	resumed := snap.Counts[string(obs.JobResumed)]
	replayed := snap.Counts[string(obs.JobReplayed)]
	failed := snap.Counts[string(obs.JobFailed)]
	other := len(snap.Jobs) - executed - resumed - replayed - failed
	line := fmt.Sprintf("cells: %d total — %d simulated, %d resumed from checkpoint, %d coalesced",
		len(snap.Jobs), executed, resumed, replayed)
	if failed > 0 {
		line += fmt.Sprintf(", %d failed", failed)
	}
	if other > 0 {
		line += fmt.Sprintf(", %d unsettled", other)
	}
	fmt.Fprintln(os.Stderr, line)
}

func writeHeader(b *strings.Builder, wiscN int, seed int64, took time.Duration, timing bool) {
	fmt.Fprintf(b, `# EXPERIMENTS — paper vs. measured

Reproduction of the evaluation of *Call Graph Prefetching for Database
Applications* (HPCA 2001). Every figure of §5 is regenerated by this
binary ('go run ./cmd/experiments'); the tables below are its output
(Wisconsin big-relation cardinality %d, seed %d%s).

Absolute cycle counts are not comparable to the paper's Alpha/
SimpleScalar testbed; the claims checked here are the *shapes*: which
configuration wins, by roughly what factor, and in what order.

`, wiscN, seed, timingClause(took, timing))
}

// timingClause renders the header's run-time note; -timing=false drops
// it so two runs of the same campaign produce byte-identical reports
// (the checkpoint/resume smoke test in CI compares them with cmp).
func timingClause(took time.Duration, timing bool) string {
	if !timing {
		return ""
	}
	return fmt.Sprintf("; total run time %s", took.Round(time.Millisecond))
}

// writeDegradedBanner marks a partially failed campaign at the top of
// the report, so a degraded EXPERIMENTS.md can never be mistaken for a
// complete one.
func writeDegradedBanner(b *strings.Builder, figs, exts []*cgp.Figure, failures []error) {
	rows := 0
	for _, f := range append(append([]*cgp.Figure{}, figs...), exts...) {
		rows += f.Degraded()
	}
	if rows == 0 && len(failures) == 0 {
		return
	}
	fmt.Fprintf(b, "> **DEGRADED RUN** — %d row(s) failed; they are marked in place below.\n", rows)
	b.WriteString("> Completed results were kept; re-run with `-checkpoint` to resume.\n")
	for _, err := range failures {
		fmt.Fprintf(b, "> - %s\n", strings.ReplaceAll(err.Error(), "\n", " · "))
	}
	b.WriteString("\n")
}

func writeSummary(b *strings.Builder, figs []*cgp.Figure, fan cgp.FanoutStats, fanOK bool) {
	byID := map[string]*cgp.Figure{}
	for _, f := range figs {
		byID[f.ID] = f
	}
	f4, f6, f7, f9, f10 := byID["fig4"], byID["fig6"], byID["fig7"], byID["fig9"], byID["fig10"]
	ablation := byID["sec5.6"]

	b.WriteString("## Headline claims\n\n")
	b.WriteString("| claim (paper) | paper | measured | verdict |\n|---|---|---|---|\n")

	// row prints one claim. A claim read from any sampled row (est)
	// rests on an estimate, not a measurement: its value prints as
	// "~…" and it can be neither reproduced nor refuted.
	row := func(claim, paper string, measured float64, format string, ok, est bool) {
		value := fmt.Sprintf(format, measured)
		verdict := okStr(ok)
		if est {
			value, verdict = "~"+value, "inconclusive (sampled estimate)"
		}
		fmt.Fprintf(b, "| %s | %s | %s | %s |\n", claim, paper, value, verdict)
	}
	// missing marks the claims whose source figure failed outright; the
	// summary says so explicitly instead of dropping the claim.
	missing := func(claim, paper, figID string) {
		fmt.Fprintf(b, "| %s | %s | — | not measured: %s failed |\n", claim, paper, figID)
	}

	if f4 != nil {
		omSpeed := f4.GeoSpeedup("O5+OM")
		cgpAlone := f4.GeoSpeedup("O5+CGP_4")
		cgpOM := f4.GeoSpeedup("O5+OM+CGP_4")
		row("OM over O5 (§5.1)", "1.11x", omSpeed, "%.2fx", omSpeed > 1.05 && omSpeed < 1.22,
			estimated(f4, "O5+OM"))
		row("CGP_4 alone over O5 (§5.2)", "1.40x", cgpAlone, "%.2fx", cgpAlone > 1.25 && cgpAlone < 1.6,
			estimated(f4, "O5+CGP_4"))
		row("CGP_4+OM over O5 (§5.2)", "1.45x", cgpOM, "%.2fx", cgpOM > 1.3 && cgpOM < 1.65,
			estimated(f4, "O5+OM+CGP_4"))
		cgpVsOM := cgpOM / omSpeed
		row("CGP_4+OM over OM (§5.2, abstract)", "1.30x", cgpVsOM, "%.2fx", cgpVsOM > 1.2 && cgpVsOM < 1.45,
			estimated(f4, "O5+OM+CGP_4", "O5+OM"))
	} else {
		missing("OM / CGP speedups (§5.1–5.2)", "1.11–1.45x", "fig4")
	}

	if f6 != nil {
		nl4 := f6.GeoSpeedup("O5+OM+NL_4")
		cgp4 := f6.GeoSpeedup("O5+OM+CGP_4")
		perfect := f6.GeoSpeedup("perf-Icache")
		cgpVsNL := cgp4 / nl4
		row("CGP over OM+NL (§5.4)", "1.07x", cgpVsNL, "%.3fx", cgpVsNL > 1.03 && cgpVsNL < 1.15,
			estimated(f6, "O5+OM+CGP_4", "O5+OM+NL_4"))
		gapToPerfect := perfect/cgp4 - 1
		row("perfect I-cache over OM+CGP_4 (§5.4)", "~0.19", gapToPerfect, "%.2f", gapToPerfect > 0.10 && gapToPerfect < 0.28,
			estimated(f6, "perf-Icache", "O5+OM+CGP_4"))
	} else {
		missing("CGP vs NL and perfect I-cache (§5.4)", "1.07x / ~0.19", "fig6")
	}

	if f7 != nil {
		mOM := f7.MeanMissFraction("O5+OM")
		mNL := f7.MeanMissFraction("O5+OM+NL_4")
		mCGP := f7.MeanMissFraction("O5+OM+CGP_4")
		row("OM miss reduction (§5.5)", "21%", 100*(1-mOM), "%.0f%%", mOM < 0.9 && mOM > 0.70,
			estimated(f7, "O5+OM"))
		row("OM+NL miss reduction (§5.5)", "77%", 100*(1-mNL), "%.0f%%", mNL < 0.3,
			estimated(f7, "O5+OM+NL_4"))
		row("OM+CGP miss reduction (§5.5, abstract 83%)", "87%", 100*(1-mCGP), "%.0f%%", mCGP < 0.2 && mCGP < mNL,
			estimated(f7, "O5+OM+CGP_4", "O5+OM+NL_4"))
	} else {
		missing("I-cache miss reductions (§5.5)", "21% / 77% / 87%", "fig7")
	}

	if f9 != nil {
		nlUse := f9.MeanUsefulFraction("CGP_4/NL-portion")
		cghcUse := f9.MeanUsefulFraction("CGP_4/CGHC-portion")
		row("CGP_4 NL-portion useful (§5.6)", "40%", 100*nlUse, "%.0f%%", nlUse > 0.25 && nlUse < 0.75,
			estimated(f9, "CGP_4/NL-portion"))
		row("CGP_4 CGHC-portion useful (§5.6)", "77%", 100*cghcUse, "%.0f%%", cghcUse > nlUse+0.05,
			estimated(f9, "CGP_4/CGHC-portion", "CGP_4/NL-portion"))
	} else {
		missing("CGP_4 portion usefulness (§5.6)", "40% / 77%", "fig9")
	}

	if ablation != nil {
		raNL := ablation.GeoSpeedup("O5+OM+RANL_4")
		row("run-ahead NL much worse than NL (§5.6)", "worse", raNL, "%.2fx vs NL_4", raNL < 0.95,
			estimated(ablation, "O5+OM+RANL_4"))
	} else {
		missing("run-ahead NL vs NL (§5.6)", "worse", "sec5.6")
	}

	if f10 != nil {
		gccGain := f10.RowsFor("gcc")
		var gccCGP float64
		for _, r := range gccGain {
			if r.Config == "O5+OM+CGP_4" {
				gccCGP = r.Speedup
			}
		}
		row("gcc gains from CGP (§5.7)", "1.07-1.08x", gccCGP, "%.2fx", gccCGP > 1.03 && gccCGP < 1.16,
			estimated(f10, "O5+OM+CGP_4"))
		insensitive := true
		for _, w := range []string{"gzip", "parser", "gap", "bzip2", "twolf"} {
			for _, r := range f10.RowsFor(w) {
				if r.Config == "O5+OM+CGP_4" && !r.Failed() && (r.Speedup > 1.06 || r.Speedup < 0.97) {
					insensitive = false
				}
			}
		}
		verdict := "reproduced"
		if !insensitive {
			verdict = "NOT reproduced"
		}
		if estimated(f10, "O5+OM+CGP_4") {
			verdict = "inconclusive (sampled estimate)"
		}
		fmt.Fprintf(b, "| other CPU2000 insensitive to CGP (§5.7) | ≈1.00x | see fig10 | %s |\n", verdict)
	} else {
		missing("CPU2000 behaviour (§5.7)", "≈1.00x, gcc 1.07x", "fig10")
	}

	if fanOK {
		fmt.Fprintf(b, "| 80%% of functions call <8 distinct callees (§3.2) | 80%% | %.0f%% | %s |\n",
			100*fan.FractionBelow8, okStr(fan.FractionBelow8 > 0.6))
		fmt.Fprintf(b, "| instructions between calls (§5.4) | 43 | %.1f | %s |\n\n",
			fan.InstrPerCall, okStr(fan.InstrPerCall > 30 && fan.InstrPerCall < 60))
	} else {
		fmt.Fprint(b, "| call fanout / instructions between calls (§3.2, §5.4) | 80% / 43 | — | not measured: profile failed |\n\n")
	}
}

// estimated reports whether a claim that reads f's rows for configs
// rests on a sampled estimate: whether any of those rows, or any
// baseline row its speedups and miss fractions are relative to, is
// Estimated.
func estimated(f *cgp.Figure, configs ...string) bool {
	for _, r := range f.Rows {
		if r.Estimated && (r.Config == f.Baseline || slices.Contains(configs, r.Config)) {
			return true
		}
	}
	return false
}

func okStr(ok bool) string {
	if ok {
		return "reproduced"
	}
	return "same direction, magnitude differs (see DESIGN.md)"
}
