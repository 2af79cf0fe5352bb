package cgp

// Round trip for the "captured" workload: live traffic served by the
// network front-end, recorded at the probe level, sealed, and fed back
// through the experiment harness as a first-class workload. The test
// asserts the property the serving pipeline exists for — a capture
// taken once from real clients replays deterministically, so a figure
// row computed from it is byte-identical across independent runners.

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cgp/internal/db"
	"cgp/internal/program"
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
// same artifact `cgpserve -capture` writes on graceful shutdown.
func sealScriptedCapture(t *testing.T, script []string) (string, *trace.Recording) {
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
	path, _ := sealScriptedCapture(t, capturedScript)

	// The capture loads as a workload like any other, and synthesizes
	// a stable address-level stream.
	w, err := Captured(path, 0)
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
		cw, err := Captured(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		rr := NewRunner(capturedRunnerOpts())
		fig, err := rr.runFigure(context.Background(), &figureSpec{id: "captured", title: "Live traffic replay",
			cells: grid(func(*Runner) []*Workload { return []*Workload{cw} }, Config.Label, configs...)})
		if err != nil {
			t.Fatal(err)
		}
		return fig.Markdown()
	}
	first, second := row(), row()
	if first != second {
		t.Fatalf("captured figure row not byte-identical:\n--- first\n%s\n--- second\n%s", first, second)
	}
	if !strings.Contains(first, "captured") {
		t.Fatalf("figure row missing workload name:\n%s", first)
	}
}
