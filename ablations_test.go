package cgp

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"cgp/internal/obs"
	"cgp/internal/sample"
)

func TestSoftwareCGPAblation(t *testing.T) {
	r := smallRunner()
	fig, err := r.SoftwareCGPAblation(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Both CGP variants must beat NL (the baseline), and the software
	// variant — an unbounded static table with no CGHC conflicts and no
	// modelled instruction overhead — must be at least in hardware
	// CGP's neighbourhood.
	hw := fig.GeoSpeedup("O5+OM+CGP_4")
	sw := fig.GeoSpeedup("O5+OM+SWCGP_4")
	if hw <= 1.0 {
		t.Errorf("hardware CGP did not beat NL: %.3f", hw)
	}
	if sw <= 1.0 {
		t.Errorf("software CGP did not beat NL: %.3f", sw)
	}
	if sw < hw*0.95 {
		t.Errorf("software CGP (%.3f) far below hardware CGP (%.3f)", sw, hw)
	}
}

func TestFIFOPolicyAblation(t *testing.T) {
	r := smallRunner()
	fig, err := r.FIFOPolicyAblation(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prio := fig.GeoSpeedup("O5+OM+CGP_4+prio")
	l2only := fig.GeoSpeedup("O5+OM+CGP_4+l2only")
	// §3.3's argument: demand priority would buy little. Allow up to a
	// few percent either way.
	if prio < 0.97 || prio > 1.06 {
		t.Errorf("demand priority changed performance by too much: %.3f", prio)
	}
	// Prefetching into L2 only must clearly lose: the demand fetch
	// still pays the L2 hit.
	if l2only > 0.9 {
		t.Errorf("L2-only prefetching not clearly worse: %.3f", l2only)
	}
}

func TestCGHCWaysAblation(t *testing.T) {
	r := smallRunner()
	fig, err := r.CGHCWaysAblation(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Associativity on the small CGHC helps at most marginally — the
	// finding that justifies the paper's direct-mapped choice.
	for _, ways := range []string{"CGHC-1K-2way", "CGHC-1K-4way"} {
		s := fig.GeoSpeedup(ways)
		if s < 0.97 || s > 1.08 {
			t.Errorf("%s speedup %.3f outside the marginal band", ways, s)
		}
	}
}

func TestCGHCSlotsAblation(t *testing.T) {
	r := smallRunner()
	fig, err := r.CGHCSlotsAblation(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// More slots must never hurt meaningfully, and 8 slots (the paper's
	// choice) should be at least as good as 2.
	s8 := fig.GeoSpeedup("CGHC-2K+32K")
	if s8 < 0.99 {
		t.Errorf("8-slot CGHC slower than 2-slot: %.3f", s8)
	}
}

func TestExtensionFiguresRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := smallRunner()
	figs, err := r.ExtensionFigures(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 6 {
		t.Fatalf("got %d extension figures", len(figs))
	}
	for _, f := range figs {
		if len(f.Rows) == 0 {
			t.Errorf("%s has no rows", f.ID)
		}
		if f.Markdown() == "" {
			t.Errorf("%s renders empty", f.ID)
		}
	}
}

func TestSWCGPLabel(t *testing.T) {
	cfg := Config{Layout: LayoutOM, Prefetcher: PrefSoftwareCGP, Degree: 4}
	if got := cfg.Label(); got != "O5+OM+SWCGP_4" {
		t.Errorf("label = %q", got)
	}
	cfg = Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4, DemandPriority: true}
	if got := cfg.Label(); got != "O5+OM+CGP_4+prio" {
		t.Errorf("label = %q", got)
	}
}

func TestDegreeSweep(t *testing.T) {
	r := smallRunner()
	fig, err := r.DegreeSweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 4*4 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	// Higher degrees must issue more useless prefetches (pollution), and
	// CGP_4 must beat CGP_1 (timeliness).
	var useless [4]int64
	for _, row := range fig.Rows {
		for i, cfg := range []string{"O5+OM+CGP_1", "O5+OM+CGP_2", "O5+OM+CGP_4", "O5+OM+CGP_8"} {
			if row.Config == cfg {
				useless[i] += row.Useless
			}
		}
	}
	if useless[3] <= useless[0] {
		t.Errorf("CGP_8 useless (%d) not above CGP_1 (%d)", useless[3], useless[0])
	}
	if s := fig.GeoSpeedup("O5+OM+CGP_4"); s <= 1.0 {
		t.Errorf("CGP_4 (%.3f) not faster than CGP_1", s)
	}
}

func TestQuantumSweep(t *testing.T) {
	r := smallRunner()
	fig, err := r.QuantumSweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 4 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	// More frequent context switches (smaller quantum) must cost more
	// I-cache misses per instruction: the paper's premise.
	missRate := func(i int) float64 {
		res := fig.Rows[i].Result
		return float64(res.CPU.ICacheMisses) / float64(res.CPU.Instructions)
	}
	if missRate(0) <= missRate(3) {
		t.Errorf("quantum-2 miss rate %.5f not above quantum-112's %.5f",
			missRate(0), missRate(3))
	}
	// And the largest quantum must be fastest.
	last := fig.Rows[3]
	if last.Speedup < 1.0 {
		t.Errorf("quantum-112 slower than quantum-2: %.3f", last.Speedup)
	}
}

// TestQuantumSweepObserved: with Obs and Attribution set, every cell of
// the quantum sweep settles in the run log and in progress, and carries
// attribution rows — the sweep runs on the runner itself, not beside it.
func TestQuantumSweepObserved(t *testing.T) {
	var logBuf bytes.Buffer
	opts := harnessOpts(2)
	opts.Obs = obs.New().AttachLog(&logBuf)
	opts.Attribution = true
	r := NewRunner(opts)
	fig, err := r.QuantumSweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	entries, err := obs.ValidateRunLog(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatalf("run log fails validation: %v", err)
	}
	settled := func(state string) bool {
		switch obs.JobState(state) {
		case obs.JobExecuted, obs.JobReplayed, obs.JobResumed:
			return true
		}
		return false
	}
	logged := map[string]bool{}
	for _, e := range entries {
		if settled(e.Event) {
			logged[e.Workload+"/"+e.Config] = true
		}
	}
	progress := map[string]string{}
	for _, jp := range opts.Obs.Progress.Snapshot().Jobs {
		progress[jp.Workload+"/"+jp.Config] = jp.State
	}
	for i, q := range QuantumSweepQuanta() {
		key := r.quantumWorkload(q).Name + "/O5+OM"
		if !logged[key] {
			t.Errorf("quantum-%d cell %s never settled in the run log", q, key)
		}
		if !settled(progress[key]) {
			t.Errorf("quantum-%d cell %s in progress state %q", q, key, progress[key])
		}
		if len(fig.Rows[i].Result.CPU.Attribution) == 0 {
			t.Errorf("quantum-%d cell carries no attribution rows", q)
		}
	}
}

// TestQuantumSweepSharesDefaultCell: at the runner's default quantum,
// the sweep's quantum-7 row is the runner's own wisc-large-2 O5+OM cell,
// one Result rather than a second simulation of it.
func TestQuantumSweepSharesDefaultCell(t *testing.T) {
	opts := harnessOpts(2)
	opts.DB.Quantum = 0 // the default, 7
	r := NewRunner(opts)
	fig, err := r.QuantumSweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	own, err := r.Run(context.Background(), WiscLarge2(r.opts.DB), Config{Layout: LayoutOM})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range fig.Rows {
		if row.Config == "quantum-7" && row.Result != own {
			t.Fatal("quantum-7 row holds a second simulation of the runner's wisc-large-2 O5+OM cell")
		}
	}
}

// TestCampaignCellsMatchGenerators: the campaign's progress jobs are
// the cells its figure generators run, and the generators honour an
// explicit sampled set.
//
// In full detail, one AllFigures + ExtensionFigures run leaves one
// settled progress job per run key, so cells that share a workload and
// config label (fig5's CGHC geometries, abl-ways and abl-slots, RANL's
// M) are counted apart and `experiments`' "cells:" line counts cells.
//
// With fig9 and the quantum sweep named in SampledFigures, every row of
// both figures is Estimated: fig9 is a counter figure outside the
// default sampled set, so only the explicit entry samples it.
func TestCampaignCellsMatchGenerators(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t.Run("full detail", func(t *testing.T) {
		opts := harnessOpts(2)
		opts.Obs = obs.New()
		r := NewRunner(opts)
		if _, err := r.AllFigures(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ExtensionFigures(context.Background()); err != nil {
			t.Fatal(err)
		}
		ran := 0
		r.mu.Lock()
		for k := range r.flights {
			if strings.HasPrefix(k, "run|") {
				ran++
			}
		}
		r.mu.Unlock()
		snap := opts.Obs.Progress.Snapshot()
		if len(snap.Jobs) != ran {
			t.Errorf("progress tracks %d jobs, want one per simulated cell: %d", len(snap.Jobs), ran)
		}
		for _, j := range snap.Jobs {
			switch obs.JobState(j.State) {
			case obs.JobExecuted, obs.JobReplayed, obs.JobResumed:
			default:
				t.Errorf("job %s/%s left in state %q", j.Workload, j.Config, j.State)
			}
		}
	})
	t.Run("fig9 and abl-quantum sampled", func(t *testing.T) {
		opts := recorded(harnessOpts(2))
		opts.SampledFigures = []string{"fig9", "abl-quantum"}
		r := NewRunner(opts)
		for _, gen := range []func(*Runner, context.Context) (*Figure, error){
			(*Runner).Figure9, (*Runner).QuantumSweep,
		} {
			fig, err := gen(r, context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range fig.Rows {
				if !row.Estimated {
					t.Errorf("%s row %s/%s is not Estimated", fig.ID, row.Workload, row.Config)
				}
			}
		}
	})
}

// TestParseFigureIDs: -sample-figures lists parse against the figure
// catalogue; blank entries are skipped, "none" is the empty set, and an
// unknown ID fails with the valid ones listed. Figures refuses an
// unknown ID before running anything.
func TestParseFigureIDs(t *testing.T) {
	cases := []struct {
		in      string
		want    []string
		wantErr bool
	}{
		{in: "fig4", want: []string{"fig4"}},
		{in: " fig9 , abl-quantum", want: []string{"fig9", "abl-quantum"}},
		{in: "fig4,,sec5.6,", want: []string{"fig4", "sec5.6"}},
		{in: " , ", want: nil},
		{in: "none", want: []string{}},
		{in: "fig44", wantErr: true},
		{in: "fig4,Fig5", wantErr: true},
		{in: "none,fig4", wantErr: true},
	}
	for _, tc := range cases {
		got, err := ParseFigureIDs(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseFigureIDs(%q) = %q, want an error", tc.in, got)
				continue
			}
			for _, id := range append(PaperFigureIDs(), ExtensionFigureIDs()...) {
				if !strings.Contains(err.Error(), id) {
					t.Errorf("ParseFigureIDs(%q) error %q does not list %s", tc.in, err, id)
				}
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseFigureIDs(%q) = %#v, %v; want %#v", tc.in, got, err, tc.want)
		}
	}
	if figs, err := NewRunner(RunnerOptions{}).Figures(context.Background(), []string{"fig4", "fig44"}); err == nil || figs != nil {
		t.Errorf("Figures with unknown ID fig44 = %v, %v; want no figures and an error", figs, err)
	}
	none, _ := ParseFigureIDs("none")
	opts := RunnerOptions{Sampling: sample.Default(), SampledFigures: none}
	for _, id := range DefaultSampledFigures() {
		if opts.samplingFor(lookupFigure(id)).Enabled() {
			t.Errorf("SampledFigures none still samples %s", id)
		}
	}
}
