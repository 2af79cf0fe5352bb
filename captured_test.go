package cgp

// Round trip for trace files as workloads. The "captured" workload is
// live traffic served by the network front-end, recorded at the probe
// level, sealed, and fed back through the experiment harness as a
// first-class workload: a capture taken once from real clients replays
// deterministically, so a figure row computed from it is byte-identical
// across independent runners. The "recorded" workload is an
// address-level recording written to a file: its cells equal the live
// workload's.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cgp/internal/db"
	"cgp/internal/program"
	"cgp/internal/sample"
	"cgp/internal/server"
	"cgp/internal/trace"
	"cgp/internal/workload"
)

// capturedScript is the statement script the captured-workload round
// trip serves.
var capturedScript = []string{
	"SELECT COUNT(*) AS n FROM big1",
	"SELECT unique1, unique2 FROM big1 WHERE unique2 BETWEEN 10 AND 60",
	"SELECT two, COUNT(*) AS n FROM big1 GROUP BY two",
	"SELECT unique1 FROM small WHERE unique2 < 20",
	"SELECT unique1 INTO TMP FROM big1 WHERE unique2 < 30",
}

// sealScriptedCapture serves script over one connection through a real
// server with every query captured (SampleEvery=1) and seals the
// recording to a temp file, returning its path and the recording — the
// same artifact `cgpserve -capture` writes on graceful shutdown. A
// nonzero traceBase tags the queries with trace IDs traceBase+1, ...,
// so the capture carries query tags.
func sealScriptedCapture(t *testing.T, script []string, traceBase uint64) (string, *trace.Recording) {
	t.Helper()
	e := db.NewEngine(db.Options{BufferFrames: 2048})
	if err := (workload.WisconsinDB{N: 300}).Load(e, 42); err != nil {
		t.Fatal(err)
	}
	lc := server.NewLiveCapture(server.CaptureOptions{SampleEvery: 1})
	s := server.New(e, server.Options{Addr: "127.0.0.1:0", Capture: lc})
	ctx, cancel := context.WithCancel(context.Background())
	if err := s.Start(ctx); err != nil {
		cancel()
		t.Fatal(err)
	}
	c, err := server.Dial(s.Addr())
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if traceBase != 0 {
		c.SetTraceBase(traceBase)
	}
	for _, q := range script {
		if _, err := c.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	c.Close()
	cancel()
	s.Wait()

	path := filepath.Join(t.TempDir(), "live.cgptrc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := lc.Seal(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if lc.Committed() != int64(len(script)) || lc.Drops() != 0 || lc.Overflows() != 0 {
		t.Fatalf("capture lost queries: committed=%d drops=%d overflows=%d",
			lc.Committed(), lc.Drops(), lc.Overflows())
	}
	if !trace.IsProbeRecording(rec) {
		t.Fatalf("sealed capture is not a probe recording: %+v", rec.Stats)
	}
	return path, rec
}

func capturedRunnerOpts() RunnerOptions {
	return RunnerOptions{
		DB:   DBOptions{WiscN: 300, Seed: 11, BufferFrames: 2048},
		Seed: 11,
	}
}

func TestCapturedWorkloadRoundTrip(t *testing.T) {
	path, _ := sealScriptedCapture(t, capturedScript, 1<<32)

	// The capture loads as a workload like any other, and synthesizes
	// a stable address-level stream.
	w, err := LoadTrace(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "captured" || w.Family != "captured" {
		t.Fatalf("workload %q of family %q, want captured/captured", w.Name, w.Family)
	}
	img := program.LayoutO5(w.NewRegistry())
	statsOnce := func() trace.Stats {
		var st trace.Stats
		if err := w.Run(img, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := statsOnce()
	if st.Instructions == 0 || st.Calls == 0 || st.DataRefs == 0 {
		t.Fatalf("synthesized stream looks empty: %+v", st)
	}
	if again := statsOnce(); again != st {
		t.Fatalf("trace stats unstable across replays:\n  %+v\n  %+v", st, again)
	}

	// A figure row over the capture is byte-identical across two
	// independent runners (fresh caches, fresh loads).
	configs := []Config{
		{Layout: LayoutO5},
		{Layout: LayoutO5, Prefetcher: PrefCGP, Degree: 4},
	}
	row := func() string {
		cw, err := LoadTrace(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		rr := NewRunner(capturedRunnerOpts())
		figs, errs := rr.figures(context.Background(), []*figureSpec{{id: "captured", title: "Live traffic replay",
			cells: grid(func(*Runner) []*Workload { return []*Workload{cw} }, Config.Label, configs...)}}, false)
		if errs[0] != nil {
			t.Fatal(errs[0])
		}
		return figs[0].Markdown()
	}
	first, second := row(), row()
	if first != second {
		t.Fatalf("captured figure row not byte-identical:\n--- first\n%s\n--- second\n%s", first, second)
	}
	if !strings.Contains(first, "captured") {
		t.Fatalf("figure row missing workload name:\n%s", first)
	}

	// The per-query table joins a slow-query log by trace ID: a logged
	// query's row ends in its status, total and stages in stage order,
	// an unlogged one's in dashes.
	ctx := context.Background()
	ao := capturedRunnerOpts()
	ao.Attribution = true
	qt, err := NewRunner(ao).QueryAttributionTable(ctx, w, Config{Layout: LayoutO5, Prefetcher: PrefCGP})
	if err != nil {
		t.Fatal(err)
	}
	err = qt.JoinQueryLog(strings.NewReader(`{"trace_id":"0000000100000001","conn":"conn-1","status":"ok",` +
		`"total_ns":123,"stages":{"execute":7,"decode":5}}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	md := qt.Markdown()
	for _, want := range []string{"| status | wall_ns | stages |\n",
		"| ok | 123 | decode=5 execute=7 |\n", "| 0000000100000002 |", "| - | - | - |\n"} {
		if !strings.Contains(md, want) {
			t.Errorf("joined per-query table lacks %q:\n%s", want, md)
		}
	}

	// The capture also runs sampled: the runner records the synthesized
	// stream and replays it by the plan.
	schedule := sample.Config{PeriodEvents: 8_000, FunctionalWarmEvents: 1_000, DetailWarmEvents: 500, WindowEvents: 1_000}
	res, err := NewRunner(capturedRunnerOpts()).Run(ctx, w, Config{Layout: LayoutO5, Prefetcher: PrefCGP, Sampling: schedule})
	if err != nil {
		t.Fatal(err)
	}
	if sm := res.CPU.Sample; sm == nil || sm.Windows < 2 {
		t.Fatalf("sampled capture run has no windows: %+v", res.CPU.Sample)
	}

	// An address-level recording of a workload, written to a file and
	// loaded back, is the "recorded" workload. Its cells equal the live
	// workload's, in full detail and sampled, and the runner replays the
	// loaded recording instead of recording it again.
	live := WiscLarge1(capturedRunnerOpts().DB)
	rc := trace.NewRecorder()
	if err := live.Run(program.LayoutO5(live.NewRegistry()), rc); err != nil {
		t.Fatal(err)
	}
	sealed, err := rc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	recPath := filepath.Join(t.TempDir(), "live.cgptrc")
	f, err := os.Create(recPath)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sealed.WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	rw, err := LoadTrace(recPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Name != "recorded" || rw.Family != "recorded" {
		t.Fatalf("workload %q of family %q, want recorded/recorded", rw.Name, rw.Family)
	}
	var (
		mu   sync.Mutex
		logs []string
	)
	opts := capturedRunnerOpts()
	opts.Log = func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	fileRunner := NewRunner(opts)
	for _, smp := range []sample.Config{{}, schedule} {
		cfg := Config{Layout: LayoutO5, Prefetcher: PrefCGP, Degree: 4, Sampling: smp}
		want, err := NewRunner(capturedRunnerOpts()).Run(ctx, live, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fileRunner.Run(ctx, rw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.CPU, want.CPU) {
			t.Errorf("sampling %s: recorded file's stats differ from the live workload's:\n  file %+v\n  live %+v", smp, got.CPU, want.CPU)
		}
		if got.Trace != want.Trace {
			t.Errorf("sampling %s: trace stats differ:\n  file %+v\n  live %+v", smp, got.Trace, want.Trace)
		}
	}
	for _, line := range logs {
		if strings.HasPrefix(line, "record") {
			t.Errorf("the runner recorded the loaded file again: %q", line)
		}
	}

	// Its addresses are fixed, so any other layout is an error, full or
	// sampled, and so is software CGP, which needs a registry.
	for _, smp := range []sample.Config{{}, schedule} {
		_, err := NewRunner(capturedRunnerOpts()).Run(ctx, rw, Config{Layout: LayoutOM, Sampling: smp})
		if err == nil || !strings.Contains(err.Error(), "O5 layout only") {
			t.Errorf("sampling %s: OM on a recorded file: err = %v, want the O5-only error", smp, err)
		}
	}
	_, err = NewRunner(capturedRunnerOpts()).Run(ctx, rw, Config{Layout: LayoutO5, Prefetcher: PrefSoftwareCGP})
	var je *JobError
	if !errors.As(err, &je) || je.Panic != nil || !strings.Contains(err.Error(), "needs a function registry") {
		t.Errorf("software CGP on a recorded file: err = %v, want the no-registry error", err)
	}
}
