package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cgp/internal/trace"
)

// TestInfoPointsAtCgpsim: info's hints for a tagged probe capture name
// the command that simulates the file, cgpsim -trace.
func TestInfoPointsAtCgpsim(t *testing.T) {
	rec := trace.NewRecorder()
	rec.EventBatch([]trace.Event{
		{Kind: trace.KindQueryTag, Addr: 7},
		{Kind: trace.KindProbeEnter, Fn: 1},
		{Kind: trace.KindProbeWork, N: 10},
		{Kind: trace.KindProbeExit},
	})
	sealed, err := rec.Finish()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tagged.cgptrc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sealed.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	out := captureStdout(t, func() error { return info([]string{path}) })
	for _, want := range []string{
		"query tags      1 (trace-tagged queries; cgpsim -trace FILE -by-query joins attribution)",
		"probe ops       3 (probe-level capture; cgpsim -trace FILE synthesizes addresses)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("info output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "replay") {
		t.Errorf("info output names the retired replay subcommand:\n%s", out)
	}
}

// captureStdout returns what fn prints to standard output.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r) // a read error leaves the output short, which the caller's checks report
		done <- b
	}()
	ferr := fn()
	os.Stdout = stdout
	w.Close()
	out := <-done
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return string(out)
}
