package campaign

// Distributed-campaign tests. The coordinator needs real worker
// processes; rather than building a separate binary, the test binary
// re-executes itself: TestMain checks CGP_CAMPAIGN_WORKER and becomes
// a protocol worker ("serve" — the real Serve loop; "hold" — a stub
// that heartbeats but never makes progress, for the stall tests)
// instead of running tests. The root-package test binary cannot host
// this (its TestMain lives in package cgp, which internal/campaign
// cannot import back), which is why every spawning test lives here.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"sync"
	"testing"
	"time"

	"cgp"
	"cgp/internal/faultinject"
	"cgp/internal/obs"
	"cgp/internal/sample"
)

func TestMain(m *testing.M) {
	switch os.Getenv("CGP_CAMPAIGN_WORKER") {
	case "serve":
		if err := Serve(context.Background(), os.Stdin, os.Stdout, nil); err != nil {
			fmt.Fprintln(os.Stderr, "campaign worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	case "hold":
		holdWorker()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// holdWorker speaks just enough protocol to look alive — hello, then
// heartbeats — but never runs a job: the deterministic stand-in for a
// wedged worker.
func holdWorker() {
	dec := json.NewDecoder(os.Stdin)
	var init Message
	if err := dec.Decode(&init); err != nil {
		return
	}
	id := ""
	if init.Spec != nil {
		id = init.Spec.Worker
	}
	enc := newSafeEncoder(os.Stdout)
	_ = enc.send(Message{Type: msgHello, Worker: id})
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				_ = enc.send(Message{Type: msgHeartbeat, Worker: id})
			case <-stop:
				return
			}
		}
	}()
	for {
		var m Message
		if err := dec.Decode(&m); err != nil {
			return // stdin EOF: the coordinator's shutdown signal
		}
	}
}

// Tiny scale keeps the spawning tests fast; fig7+fig8 share cells, so
// the manifest also exercises cross-figure dedup.
const testWiscN = 400

func testOptions(dir string) cgp.RunnerOptions {
	return cgp.RunnerOptions{
		DB:            cgp.DBOptions{WiscN: testWiscN, Seed: 1},
		Seed:          1,
		CheckpointDir: dir,
	}
}

func testSpec(dir string) RunnerSpec {
	return RunnerSpec{
		DB:            cgp.DBOptions{WiscN: testWiscN, Seed: 1},
		Seed:          1,
		CheckpointDir: dir,
	}
}

var testManifest = &Manifest{Name: "test", Figures: []string{"fig7", "fig8"}}

// renderTestFigures produces the deterministic report slice the
// byte-identity tests compare: the markdown of the manifest's figures.
func renderTestFigures(ctx context.Context, r *cgp.Runner) (string, error) {
	f7, err := r.Figure7(ctx)
	if err != nil {
		return "", err
	}
	f8, err := r.Figure8(ctx)
	if err != nil {
		return "", err
	}
	return f7.Markdown() + f8.Markdown(), nil
}

// baseline computes the unsharded reference once per test binary: the
// figure markdown from a plain in-process runner, plus the campaign's
// job list.
var (
	baseOnce sync.Once
	baseMD   string
	baseJobs []JobSpec
	baseErr  error
)

func baseline(t *testing.T) (string, []JobSpec) {
	t.Helper()
	baseOnce.Do(func() {
		ctx := context.Background()
		r := cgp.NewRunner(testOptions(""))
		baseMD, baseErr = renderTestFigures(ctx, r)
		if baseErr != nil {
			return
		}
		baseJobs, baseErr = Jobs(r, testManifest)
	})
	if baseErr != nil {
		t.Fatal(baseErr)
	}
	return baseMD, baseJobs
}

// testCommand re-executes the test binary as a worker; mode picks the
// per-slot worker personality.
func testCommand(t *testing.T, mode func(slot int) string) func(context.Context, int) (*exec.Cmd, error) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return func(ctx context.Context, slot int) (*exec.Cmd, error) {
		cmd := exec.CommandContext(ctx, exe)
		cmd.Env = append(os.Environ(), "CGP_CAMPAIGN_WORKER="+mode(slot))
		cmd.Stderr = io.Discard
		return cmd, nil
	}
}

func serveAll(int) string { return "serve" }

// merge renders the figures from a checkpoint directory a campaign
// populated and asserts nothing was re-simulated: byte-identity must
// come from the imported records, not from silent recomputation.
func merge(t *testing.T, dir string) string {
	t.Helper()
	opts := testOptions(dir)
	o := obs.New()
	opts.Obs = o
	md, err := renderTestFigures(context.Background(), cgp.NewRunner(opts))
	if err != nil {
		t.Fatal(err)
	}
	if n := o.Progress.Snapshot().Counts[string(obs.JobExecuted)]; n != 0 {
		t.Errorf("merge re-simulated %d cells; every cell should resume from an imported record", n)
	}
	return md
}

func TestShardedCampaignByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	want, jobs := baseline(t)
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			co := New(Options{
				Workers: n,
				Spec:    testSpec(dir),
				Command: testCommand(t, serveAll),
			})
			st, err := co.Run(context.Background(), jobs)
			if err != nil {
				t.Fatalf("coordinator: %v", err)
			}
			if len(st.Failed) > 0 {
				t.Fatalf("failed jobs: %v", st.Failed)
			}
			if st.Imported != len(jobs) {
				t.Errorf("imported %d records, want %d (one per job)", st.Imported, len(jobs))
			}
			if got := merge(t, dir); got != want {
				t.Errorf("merged figures differ from unsharded baseline at %d shards\n--- unsharded ---\n%s\n--- merged ---\n%s", n, want, got)
			}
		})
	}
}

// TestWorkerKillRejoin is the cross-process half of the chaos suite:
// SIGKILL a worker at an exact point in the record stream
// (faultinject.FireAt makes the timing deterministic), let the
// coordinator respawn it, and require the merged figures to stay
// byte-identical to the unsharded run.
func TestWorkerKillRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	want, jobs := baseline(t)
	dir := t.TempDir()
	var co *Coordinator
	kill := faultinject.FireAt(3, func() { co.KillWorker(WorkerID(0)) })
	co = New(Options{
		Workers:       2,
		Spec:          testSpec(dir),
		Command:       testCommand(t, serveAll),
		RestartBudget: 2,
		OnRecord:      func(string, string) { kill() },
	})
	st, err := co.Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if st.Restarts == 0 {
		t.Error("expected at least one worker restart after the kill")
	}
	if len(st.Failed) > 0 {
		t.Fatalf("failed jobs: %v", st.Failed)
	}
	if got := merge(t, dir); got != want {
		t.Error("merged figures differ from unsharded baseline after worker kill/rejoin")
	}
}

// TestSlowWorkerReassigned wedges one slot with the hold stub (alive,
// heartbeating, never progressing) and requires the coordinator's
// stall detector to shadow its jobs onto the healthy worker — and the
// merge to stay byte-identical.
func TestSlowWorkerReassigned(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	want, jobs := baseline(t)
	dir := t.TempDir()
	co := New(Options{
		Workers: 2,
		Spec:    testSpec(dir),
		Command: testCommand(t, func(slot int) string {
			if slot == 1 {
				return "hold"
			}
			return "serve"
		}),
		StallTimeout: 500 * time.Millisecond,
	})
	st, err := co.Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if st.Reassigned == 0 {
		t.Error("expected the stalled worker's jobs to be reassigned")
	}
	if len(st.Failed) > 0 {
		t.Fatalf("failed jobs: %v", st.Failed)
	}
	if got := merge(t, dir); got != want {
		t.Error("merged figures differ from unsharded baseline after stall reassignment")
	}
}

func TestPartitionDeterministicAndComplete(t *testing.T) {
	var jobs []JobSpec
	id := 0
	for _, w := range []string{"wisc-large-1", "wisc-large-2", "tpch-lite", "gzip"} {
		for _, layout := range []cgp.Layout{cgp.LayoutO5, cgp.LayoutOM} {
			for d := 1; d <= 3; d++ {
				jobs = append(jobs, JobSpec{ID: id, Workload: w,
					Config: cgp.Config{Layout: layout, Prefetcher: cgp.PrefCGP, Degree: d}})
				id++
			}
		}
	}
	jobs = append(jobs, JobSpec{ID: id, Workload: "wisc-large-2/q2",
		Config: cgp.Config{Layout: cgp.LayoutOM}})

	for _, n := range []int{1, 2, 3, 16} {
		shards := Partition(jobs, n)
		if len(shards) != n {
			t.Fatalf("n=%d: got %d shards", n, len(shards))
		}
		if !reflect.DeepEqual(shards, Partition(jobs, n)) {
			t.Errorf("n=%d: partition is not deterministic", n)
		}
		seen := map[int]int{}
		group := map[string]int{}
		for s, shard := range shards {
			for _, j := range shard {
				seen[j.ID]++
				if prev, ok := group[groupKey(j)]; ok && prev != s {
					t.Errorf("n=%d: group %s split across shards %d and %d", n, groupKey(j), prev, s)
				}
				group[groupKey(j)] = s
			}
		}
		for _, j := range jobs {
			if seen[j.ID] != 1 {
				t.Errorf("n=%d: job %d placed %d times", n, j.ID, seen[j.ID])
			}
		}
	}
	// More shards than groups: the extras stay empty rather than
	// splitting a recording group.
	shards := Partition(jobs[:3], 5)
	nonEmpty := 0
	for _, s := range shards {
		if len(s) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 1 {
		t.Errorf("3 same-group jobs over 5 shards: %d non-empty shards, want 1", nonEmpty)
	}
}

// TestProtocolConfigRoundTrip guards the wire format's load-bearing
// property: a config surviving the JSON trip keeps its fingerprint, so
// a worker's checkpoint keys match the coordinator's enumeration.
func TestProtocolConfigRoundTrip(t *testing.T) {
	js := JobSpec{
		ID:       7,
		Workload: "wisc-large-2",
		Config: cgp.Config{
			Layout: cgp.LayoutOM, Prefetcher: cgp.PrefCGP, Degree: 4,
			CGHC:           cgp.CGHCConfig{L1Bytes: 1024, Ways: 2, Slots: 4},
			DemandPriority: true,
			Sampling:       sample.Config{PeriodEvents: 1000, WindowEvents: 100, Seed: 9},
		},
	}
	data, err := json.Marshal(Message{Type: msgJobs, Jobs: []JobSpec{js}})
	if err != nil {
		t.Fatal(err)
	}
	var m Message
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Jobs) != 1 {
		t.Fatalf("got %d jobs", len(m.Jobs))
	}
	if got, want := m.Jobs[0].Key(), js.Key(); got != want {
		t.Errorf("config fingerprint changed across the wire:\n got %s\nwant %s", got, want)
	}
}

func TestManifestsAndJobs(t *testing.T) {
	r := cgp.NewRunner(testOptions(""))
	for _, name := range []string{"", ManifestAllFigures, ManifestPaper, ManifestExtensions} {
		m, err := LoadManifest(name)
		if err != nil {
			t.Fatalf("LoadManifest(%q): %v", name, err)
		}
		jobs, err := Jobs(r, m)
		if err != nil {
			t.Fatalf("Jobs(%q): %v", name, err)
		}
		if len(jobs) == 0 {
			t.Fatalf("manifest %q expands to no jobs", name)
		}
		keys := map[string]bool{}
		for i, j := range jobs {
			if j.ID != i {
				t.Fatalf("manifest %q: job %d has ID %d", name, i, j.ID)
			}
			if keys[j.Key()] {
				t.Errorf("manifest %q: duplicate cell key %s", name, j.Key())
			}
			keys[j.Key()] = true
		}
	}
	all, _ := LoadManifest(ManifestAllFigures)
	paper, _ := LoadManifest(ManifestPaper)
	exts, _ := LoadManifest(ManifestExtensions)
	allJobs, _ := Jobs(r, all)
	paperJobs, _ := Jobs(r, paper)
	extJobs, _ := Jobs(r, exts)
	if len(paperJobs) >= len(allJobs) || len(extJobs) >= len(allJobs) {
		t.Errorf("manifest sizes: paper %d, extensions %d, allfigures %d — subsets should be smaller",
			len(paperJobs), len(extJobs), len(allJobs))
	}

	if _, err := LoadManifest("nonsense"); err == nil {
		t.Error("LoadManifest accepted an unknown name")
	}
	if _, err := Jobs(r, &Manifest{Name: "bad", Figures: []string{"fig99"}}); err == nil {
		t.Error("Jobs accepted an unknown figure")
	}

	path := t.TempDir() + "/m.json"
	if err := os.WriteFile(path, []byte(`{"figures":["fig7"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest("@" + path)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := Jobs(r, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) == 0 || len(jobs) >= len(allJobs) {
		t.Errorf("@file manifest: %d jobs (allfigures %d)", len(jobs), len(allJobs))
	}
}
