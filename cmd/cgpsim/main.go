// Command cgpsim runs one workload under one system configuration and
// prints the measured statistics.
//
// Usage:
//
//	cgpsim -workload wisc-large-2 -layout om -prefetch cgp -n 4
//	cgpsim -workload gcc -layout om -prefetch nl -n 4
//	cgpsim -workload wisc-prof -perfect
//	cgpsim -workload wisc-prof -prefetch cgp -attribution -stats-json stats.json
//	cgpsim -workload wisc-large-1 -prefetch nl -sample
//	cgpsim -trace wisc.cgptrc -prefetch cgp -n 4
//	cgpsim -trace live.cgptrc -prefetch cgp -by-query -querylog slow.jsonl
//
// -sample switches to sampled simulation: most of the event stream is
// skipped or functionally warmed and only periodic windows run in
// detail, printing estimated whole-run cycles and misses with 95%
// confidence intervals instead of measured totals. The schedule knobs
// are -sample-period, -sample-fwarm, -sample-warmup, -sample-window
// (all in events) and -sample-random-offset, whose offsets -seed seeds.
//
// Workloads: wisc-prof, wisc-large-1, wisc-large-2, wisc+tpch,
// gzip, gcc, crafty, parser, gap, bzip2, twolf.
//
// -trace FILE runs a sealed trace file instead of -workload, the way a
// figure cell runs (cgp.LoadTrace). A probe-level capture of served
// traffic (cgpserve -capture) is synthesized over the database
// system's image, seeded by -seed, on either layout. An address-level
// recording (cgptrace record) replays its own events, on the O5 layout
// only; a sampled run skips through the loaded file. Recorded streams
// carry no symbols, so -attribution names their functions by start
// address.
//
// -by-query joins the simulation back to the serving layer: a capture
// of trace-tagged traffic (cgpserve -drive -traced) carries each
// query's trace ID, and -by-query prints per-trace-ID attribution
// (fetches, misses, coverage, accuracy, timeliness). -querylog
// slow.jsonl joins in the server's status, wall-clock total and stage
// latencies for the same IDs, so one table links what a query cost on
// the wire to what it cost in the simulated memory hierarchy.
//
// -stats-json dumps the full measurement — cpu.Stats including the
// per-function attribution rows when -attribution is set — as JSON
// with stable key order (struct declaration order), so diffs between
// runs are meaningful.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"cgp"
	"cgp/internal/sample"
	"cgp/internal/workload"
)

func main() {
	var (
		workloadName = flag.String("workload", "wisc-prof", "workload name")
		traceFile    = flag.String("trace", "", "run this sealed trace file (probe capture or address-level recording) instead of -workload")
		layout       = flag.String("layout", "o5", "binary layout: o5 or om")
		pref         = flag.String("prefetch", "none", "prefetcher: none, nl, ranl, cgp")
		degree       = flag.Int("n", 4, "lines prefetched per trigger (NL_n / CGP_n)")
		runAheadM    = flag.Int("m", 4, "run-ahead distance for ranl")
		cghc         = flag.String("cghc", "2k+32k", "CGHC size: e.g. 1k, 32k, 1k+16k, 2k+32k, inf")
		perfect      = flag.Bool("perfect", false, "perfect I-cache")
		wiscN        = flag.Int("wisc-n", 10000, "Wisconsin big-relation cardinality")
		seed         = flag.Int64("seed", 42, "workload seed (also seeds probe-capture synthesis and -sample-random-offset)")
		attribution  = flag.Bool("attribution", false, "collect per-function prefetch attribution")
		byQuery      = flag.Bool("by-query", false, "print per-trace-ID attribution for a capture of trace-tagged traffic")
		querylog     = flag.String("querylog", "", "with -by-query: join the server's slow-query log (JSONL) into the table")
		statsJSON    = flag.String("stats-json", "", "dump the full statistics as stable-key-order JSON to this file ('-' for stdout)")
		attrTop      = flag.Int("attr-top", 10, "attribution rows to print with -attribution")
		verbose      = flag.Bool("v", false, "progress output")
	)
	sampling := sample.RegisterFlags(flag.CommandLine, "sampled simulation: estimate whole-run cycles/misses from periodic detailed windows")
	flag.Parse()

	cfg, err := buildConfig(*layout, *pref, *degree, *runAheadM, *cghc, *perfect)
	if err == nil && *querylog != "" && !*byQuery {
		err = fmt.Errorf("-querylog needs -by-query")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgpsim:", err)
		os.Exit(2)
	}
	cfg.Sampling = sampling(*seed)
	opts := cgp.RunnerOptions{
		DB: cgp.DBOptions{WiscN: *wiscN, Seed: *seed}, Seed: *seed,
		Attribution: *attribution || *byQuery,
	}
	if *verbose {
		opts.Log = func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) }
	}
	r := cgp.NewRunner(opts)

	var w *cgp.Workload
	if *traceFile != "" {
		w, err = cgp.LoadTrace(*traceFile, *seed)
	} else {
		w, err = workload.ByName(*workloadName, *wiscN, *seed)
	}
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := r.Run(ctx, w, cfg)
	if err != nil {
		fatal(err)
	}
	if *statsJSON != "" {
		if err := dumpStatsJSON(*statsJSON, res); err != nil {
			fatal(err)
		}
	}
	printResult(res)
	if *attribution {
		tab, err := r.AttributionTable(ctx, w, cfg, *attrTop)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		fmt.Print(tab.Markdown())
	}
	if *byQuery {
		tab, err := r.QueryAttributionTable(ctx, w, cfg)
		if err == nil && *querylog != "" {
			var f *os.File
			if f, err = os.Open(*querylog); err == nil {
				err = tab.JoinQueryLog(f)
				f.Close()
			}
		}
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		fmt.Print(tab.Markdown())
	}
}

func dumpStatsJSON(path string, res *cgp.Result) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func buildConfig(layout, pref string, n, m int, cghc string, perfect bool) (cgp.Config, error) {
	var cfg cgp.Config
	switch strings.ToLower(layout) {
	case "o5":
		cfg.Layout = cgp.LayoutO5
	case "om", "o5+om":
		cfg.Layout = cgp.LayoutOM
	default:
		return cfg, fmt.Errorf("unknown layout %q", layout)
	}
	switch strings.ToLower(pref) {
	case "none", "":
		cfg.Prefetcher = cgp.PrefNone
	case "nl":
		cfg.Prefetcher = cgp.PrefNL
	case "ranl":
		cfg.Prefetcher = cgp.PrefRunAheadNL
	case "cgp":
		cfg.Prefetcher = cgp.PrefCGP
	default:
		return cfg, fmt.Errorf("unknown prefetcher %q", pref)
	}
	if n <= 0 || m <= 0 {
		return cfg, fmt.Errorf("-n and -m must be positive (got -n %d -m %d)", n, m)
	}
	cfg.Degree = n
	cfg.RunAheadM = m
	cfg.PerfectICache = perfect
	var err error
	cfg.CGHC, err = parseCGHC(cghc)
	return cfg, err
}

func parseCGHC(s string) (cgp.CGHCConfig, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "inf" || s == "infinite" {
		return cgp.CGHCConfig{Infinite: true}, nil
	}
	// A direct-mapped level of v KB has a power-of-two set count only
	// when v is a power of two.
	parse := func(part string) (int, error) {
		part = strings.TrimSuffix(part, "k")
		var v int
		if _, err := fmt.Sscanf(part, "%d", &v); err != nil || v <= 0 || v&(v-1) != 0 {
			return 0, fmt.Errorf("bad CGHC size %q: each level is a power-of-two number of KB", s)
		}
		return v * 1024, nil
	}
	var cfg cgp.CGHCConfig
	parts := strings.SplitN(s, "+", 2)
	var err error
	if cfg.L1Bytes, err = parse(parts[0]); err != nil {
		return cfg, err
	}
	if len(parts) == 2 {
		if cfg.L2Bytes, err = parse(parts[1]); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

func printResult(res *cgp.Result) {
	s := res.CPU
	fmt.Printf("workload        %s\n", res.Workload)
	fmt.Printf("config          %s\n", res.Config)
	if sm := s.Sample; sm != nil {
		// Sampled run: the headline numbers are estimates (±95% CI);
		// the raw counters below them cover only the decoded spans.
		fmt.Printf("est cycles      ~%d ±%.1f%% (95%% CI, %d windows)\n",
			int64(sm.EstCycles), 100*sm.CycleRelCI, sm.Windows)
		fmt.Printf("est I-misses    ~%d ±%.1f%%\n", sm.EstIMisses, 100*sm.MissRelCI)
		fmt.Printf("est IPC         %.3f\n", sm.EstIPC(s.Instructions))
		if sm.Degenerate {
			fmt.Printf("                (degenerate: <2 windows, no confidence interval)\n")
		}
		fmt.Printf("events          skipped=%d fast-forwarded=%d detailed=%d (%d warm-up + %d measured)\n",
			sm.SkippedEvents, sm.FastForwardedEvents, sm.DetailedEvents(),
			sm.WarmupEvents, sm.MeasuredEvents)
		fmt.Printf("instructions    %d (exact; %d skipped undecoded)\n", s.Instructions, sm.SkippedInstrs)
		fmt.Printf("detailed cycles %d (measured spans only — diagnostics below cover decoded events)\n", s.Cycles)
	} else {
		fmt.Printf("cycles          %d\n", s.Cycles)
		fmt.Printf("instructions    %d\n", s.Instructions)
		fmt.Printf("IPC             %.3f\n", s.IPC())
	}
	fmt.Printf("instr/call      %.1f\n", res.Trace.InstructionsPerCall())
	fmt.Printf("I-line fetches  %d\n", s.ILineAccesses)
	fmt.Printf("I-cache misses  %d (%.3f%% of line fetches, %.2f/kinst)\n",
		s.ICacheMisses, 100*s.IMissRate(), s.IMissPerKInstr())
	fmt.Printf("I-miss stalls   %d cycles\n", s.IMissStallCycles)
	fmt.Printf("D-cache misses  %d / %d accesses\n", s.DCacheMisses, s.DLineAccesses)
	fmt.Printf("L2 transfers    %d (misses to memory: %d)\n", s.L2Accesses, s.L2Misses)
	fmt.Printf("branches        %d (mispredicts %d)\n", s.Branches, s.BranchMispredicts)
	fmt.Printf("returns         %d (RAS mispredicts %d)\n", s.Returns, s.RASMispredicts)
	fmt.Printf("ctx switches    %d\n", s.Switches)
	tp := s.TotalPrefetch()
	if tp.Issued > 0 {
		fmt.Printf("prefetches      issued=%d squashed=%d hits=%d delayed=%d useless=%d (useful %.1f%%)\n",
			tp.Issued, tp.Squashed, tp.PrefHits, tp.DelayedHits, tp.Useless, 100*tp.UsefulFraction())
		fmt.Printf("  NL portion    issued=%d hits=%d delayed=%d useless=%d\n",
			s.NL.Issued, s.NL.PrefHits, s.NL.DelayedHits, s.NL.Useless)
		fmt.Printf("  CGHC portion  issued=%d hits=%d delayed=%d useless=%d\n",
			s.CGHC.Issued, s.CGHC.PrefHits, s.CGHC.DelayedHits, s.CGHC.Useless)
	}
	if res.CGPStats != nil {
		h := res.CGPStats.History
		fmt.Printf("CGHC            pf-hit=%d pf-miss=%d upd-hit=%d upd-miss=%d L2hit=%d\n",
			h.PrefetchHits, h.PrefetchMisses, h.UpdateHits, h.UpdateMisses, h.LevelTwoHits)
		fmt.Printf("CGHC hit rates  prefetch=%.1f%% update=%.1f%%\n",
			100*h.PrefetchHitRate(), 100*h.UpdateHitRate())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cgpsim:", err)
	os.Exit(1)
}
