// cgpserve: the hardened SQL serving front-end over the instrumented
// engine, plus a load-driving client mode for benchmarks and CI.
//
// Serve (loads Wisconsin + optionally TPC-H, serves until SIGTERM):
//
//	cgpserve -addr 127.0.0.1:7744 -http 127.0.0.1:7745 -capture live.cgptrc
//
// A capture, when requested, records every served query at the probe
// level and seals on graceful shutdown; cgpsim -trace simulates the
// sealed file, which cgp.LoadTrace loads as the "captured" workload.
//
// Drive (hammer a serving process, report queries/sec):
//
//	cgpserve -drive 127.0.0.1:7744 -clients 4 -queries 200 -traced
//
// -traced tags every driven query with a client-minted trace ID
// (client i uses IDs (i+1)<<32 + seq), which the server threads
// through its spans, the slow-query log and — when capturing — the
// sealed capture, so `cgpsim -trace FILE -by-query` can join
// wall-clock latency to simulated CGP attribution per query.
//
// CI check modes (exit nonzero on violation):
//
//	cgpserve -check-metrics http://127.0.0.1:7745/metrics
//	cgpserve -check-querylog slow.jsonl
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"cgp/internal/db"
	"cgp/internal/obs"
	"cgp/internal/server"
	"cgp/internal/workload"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7744", "TCP listen address")
		httpAddr = flag.String("http", "", "HTTP fallback listen address (empty disables)")
		capture  = flag.String("capture", "", "seal a live probe-level capture to this file on graceful shutdown")
		capEvery = flag.Int("capture-sample", 1, "record every Nth served query (1 = all; long-lived attachment wants the library default, 64)")
		runlog   = flag.String("runlog", "", "write the serving run log (JSONL) to this file")
		wiscN    = flag.Int("wisc-n", 2000, "Wisconsin relation size")
		tpch     = flag.Bool("tpch", false, "also load the TPC-H tables")
		maxConns = flag.Int("max-conns", 64, "connection limit")
		inflight = flag.Int("max-inflight", 8, "concurrent admitted queries")
		rate     = flag.Float64("rate", 0, "token-bucket refill rate in queries/sec (0 = unlimited)")
		burst    = flag.Float64("burst", 0, "token-bucket burst (0 = rate)")
		deadline = flag.Duration("deadline", 5*time.Second, "per-query execution budget")

		querylog  = flag.String("querylog", "", "write the structured slow-query log (JSONL) to this file")
		slow      = flag.Duration("slow", 50*time.Millisecond, "slow-query threshold for -querylog (0 logs every query)")
		tracejson = flag.String("tracejson", "", "write retained query spans as Perfetto-loadable JSON to this file on shutdown")

		drive   = flag.String("drive", "", "drive load against this address instead of serving")
		clients = flag.Int("clients", 4, "drive: concurrent client connections")
		queries = flag.Int("queries", 100, "drive: queries per client")
		traced  = flag.Bool("traced", false, "drive: tag every query with a client-minted trace ID")

		checkMetrics  = flag.String("check-metrics", "", "fetch this /metrics URL, lint the Prometheus exposition, exit")
		checkQuerylog = flag.String("check-querylog", "", "validate this slow-query log's schema, exit")
	)
	flag.Parse()

	switch {
	case *checkMetrics != "":
		if err := lintMetrics(*checkMetrics); err != nil {
			log.Fatal(err)
		}
		return
	case *checkQuerylog != "":
		if err := lintQuerylog(*checkQuerylog); err != nil {
			log.Fatal(err)
		}
		return
	case *drive != "":
		if err := driveLoad(*drive, *clients, *queries, *traced); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := serve(serveConfig{
		addr: *addr, httpAddr: *httpAddr, capture: *capture, runlog: *runlog,
		querylog: *querylog, slow: *slow, tracejson: *tracejson,
		wiscN: *wiscN, tpch: *tpch, maxConns: *maxConns, inflight: *inflight,
		capEvery: *capEvery, rate: *rate, burst: *burst, deadline: *deadline,
	}); err != nil {
		log.Fatal(err)
	}
}

type serveConfig struct {
	addr, httpAddr, capture, runlog string
	querylog, tracejson             string
	slow                            time.Duration
	wiscN                           int
	tpch                            bool
	maxConns, inflight, capEvery    int
	rate, burst                     float64
	deadline                        time.Duration
}

func serve(cfg serveConfig) error {
	e := db.NewEngine(db.Options{BufferFrames: 8192})
	if err := (workload.WisconsinDB{N: cfg.wiscN}).Load(e, 42); err != nil {
		return err
	}
	if cfg.tpch {
		if err := workload.LoadTPCH(e, workload.DefaultTPCHScale(), 42); err != nil {
			return err
		}
	}

	wall := obs.NewWallRegistry()
	var rl *obs.RunLog
	if cfg.runlog != "" {
		f, err := os.Create(cfg.runlog)
		if err != nil {
			return err
		}
		defer f.Close()
		rl = obs.NewRunLog(f)
	}
	var lc *server.LiveCapture
	if cfg.capture != "" {
		lc = server.NewLiveCapture(server.CaptureOptions{SampleEvery: cfg.capEvery, Wall: wall, Log: rl})
	}

	// The tracer is always on while serving: the untagged per-query cost
	// is a handful of clock reads and atomic adds, and it is what makes
	// /metrics stage percentiles and the trace-ID echo available without
	// a restart. The slow-query log and the Perfetto export stay opt-in.
	topts := obs.QueryTraceOptions{SlowThreshold: cfg.slow}
	var qlf *os.File
	if cfg.querylog != "" {
		f, err := os.Create(cfg.querylog)
		if err != nil {
			return err
		}
		qlf = f
		topts.LogW = f
	}
	tracer := obs.NewQueryTracer(topts)

	s := server.New(e, server.Options{
		Addr:          cfg.addr,
		HTTPAddr:      cfg.httpAddr,
		MaxConns:      cfg.maxConns,
		MaxInflight:   cfg.inflight,
		RatePerSec:    cfg.rate,
		Burst:         cfg.burst,
		QueryDeadline: cfg.deadline,
		Capture:       lc,
		Wall:          wall,
		Log:           rl,
		Trace:         tracer,
	})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := s.Start(ctx); err != nil {
		return err
	}
	fmt.Printf("cgpserve: listening on %s", s.Addr())
	if cfg.httpAddr != "" {
		fmt.Printf(" (http %s)", s.HTTPAddr())
	}
	fmt.Println()
	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "cgpserve: draining...")
	s.Wait()
	if lc != nil {
		f, err := os.Create(cfg.capture)
		if err != nil {
			return err
		}
		rec, err := lc.Seal(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cgpserve: sealed %s: %d queries (%d sampled away), %d events, %d dropped\n",
			cfg.capture, lc.Committed(), lc.Skipped(), rec.Events(), lc.Drops())
	}
	if err := tracer.Close(); err != nil {
		return fmt.Errorf("query log: %w", err)
	}
	if qlf != nil {
		if err := qlf.Close(); err != nil {
			return err
		}
	}
	if cfg.tracejson != "" {
		// Validate before writing, as experiments does for its harness
		// trace: a malformed export fails here, not inside Perfetto.
		var buf bytes.Buffer
		if err := tracer.WriteChromeTrace(&buf); err != nil {
			return err
		}
		if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
			return fmt.Errorf("trace validation: %w", err)
		}
		if err := os.WriteFile(cfg.tracejson, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "cgpserve: traced %d queries (%d slow, %d spans dropped)\n",
		tracer.Traced(), tracer.Slow(), tracer.Dropped())
	if rl != nil {
		return rl.Err()
	}
	return nil
}

// driveLoad hammers a serving process and reports throughput. Shed
// queries (ErrOverloaded) count separately — against an overloaded
// server they are the expected outcome, not a failure. With traced
// set, client i mints trace IDs (i+1)<<32 + seq, so every driven
// query's ID is distinct across clients and greppable in the server's
// slow-query log and capture.
func driveLoad(addr string, clients, queries int, traced bool) error {
	var (
		mu           sync.Mutex
		served, shed int
		failures     []error
		lastIDs      []uint64
	)
	start := time.Now() //cgplint:ignore detrand wall-clock throughput measurement is the drive mode's entire output; it never feeds a figure
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := server.Dial(addr)
			if err != nil {
				mu.Lock()
				failures = append(failures, err)
				mu.Unlock()
				return
			}
			defer c.Close()
			if traced {
				c.SetTraceBase(uint64(id+1) << 32)
			}
			for j := 0; j < queries; j++ {
				_, err := c.Query(server.DriveMix[(id+j)%len(server.DriveMix)].SQL)
				mu.Lock()
				switch {
				case err == nil:
					served++
				case errors.Is(err, server.ErrOverloaded):
					shed++
				default:
					failures = append(failures, err)
				}
				mu.Unlock()
			}
			mu.Lock()
			lastIDs = append(lastIDs, c.LastTraceID())
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start) //cgplint:ignore detrand see above: drive-mode wall throughput
	if len(failures) > 0 {
		return fmt.Errorf("drive: %d queries failed, first: %w", len(failures), failures[0])
	}
	qps := float64(served) / elapsed.Seconds()
	fmt.Printf("drive: %d served, %d shed in %v (%.0f qps, %d clients)\n",
		served, shed, elapsed.Round(time.Millisecond), qps, clients)
	if traced {
		fmt.Printf("drive: traced; per-client last trace IDs:")
		for _, id := range lastIDs {
			fmt.Printf(" %016x", id)
		}
		fmt.Println()
	}
	return nil
}

// lintMetrics fetches a /metrics URL and runs the full Prometheus
// text-format lint over the body, additionally requiring the stage
// latency summary to be present — the CI smoke step's gate.
func lintMetrics(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("check-metrics: %s returned %s", url, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if err := obs.ValidatePrometheusText(body); err != nil {
		return fmt.Errorf("check-metrics: %w", err)
	}
	if !strings.Contains(string(body), "cgp_query_stage_latency_ns") {
		return fmt.Errorf("check-metrics: no cgp_query_stage_latency_ns summary in %s", url)
	}
	fmt.Printf("check-metrics: %s ok (%d bytes)\n", url, len(body))
	return nil
}

// lintQuerylog validates a slow-query log file's JSONL schema and
// requires at least one entry.
func lintQuerylog(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	entries, err := obs.ValidateQueryLog(f)
	if err != nil {
		return fmt.Errorf("check-querylog: %w", err)
	}
	if len(entries) == 0 {
		return fmt.Errorf("check-querylog: %s is empty", path)
	}
	slow := 0
	for i := range entries {
		if entries[i].Slow {
			slow++
		}
	}
	fmt.Printf("check-querylog: %s ok (%d entries, %d slow)\n", path, len(entries), slow)
	return nil
}
