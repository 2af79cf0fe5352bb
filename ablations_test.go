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

// TestCampaignWorkloadsResolve: every workload name CampaignCells emits
// resolves through WorkloadByName to a workload of that name, at the
// default quantum and at another, so a campaign worker can rebuild
// every cell it is sent. Quantum names resolve only in their one
// canonical form.
func TestCampaignWorkloadsResolve(t *testing.T) {
	for _, quantum := range []int{0, 5} {
		opts := harnessOpts(1)
		opts.DB.Quantum = quantum
		r := NewRunner(opts)
		seen := map[string]bool{}
		for _, c := range r.CampaignCells() {
			if seen[c.Workload] {
				continue
			}
			seen[c.Workload] = true
			w, err := r.WorkloadByName(c.Workload)
			if err != nil || w.Name != c.Workload {
				t.Errorf("quantum %d: cell workload %q resolves to %v, %v", quantum, c.Workload, w, err)
			}
		}
		if !seen["wisc-large-2/q2"] || !seen["wisc-large-2/q112"] {
			t.Errorf("quantum %d: campaign cells lack the quantum-sweep workloads: %v", quantum, seen)
		}
	}
	r := NewRunner(RunnerOptions{DB: DBOptions{WiscN: 400}})
	for _, name := range []string{"wisc-large-2/q7", "wisc-large-2/q02", "wisc-large-2/q0", "wisc-large-2/q-3", "wisc-large-2/q"} {
		if w, err := r.WorkloadByName(name); err == nil {
			t.Errorf("non-canonical name %q resolved to %q", name, w.Name)
		}
	}
}

// TestCampaignCellsMatchGenerators: the cells CampaignCells enumerates
// are exactly the cells AllFigures and ExtensionFigures simulate, in
// full detail, under the default sampled set, and under an explicit set
// naming the counter figure fig9 and the quantum sweep.
func TestCampaignCellsMatchGenerators(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	explicit := recorded(harnessOpts(2))
	explicit.SampledFigures = []string{"fig9", "abl-quantum"}
	cases := []struct {
		name string
		opts RunnerOptions
	}{
		{"full detail", harnessOpts(2)},
		{"default sampled set", recorded(harnessOpts(2))},
		{"fig9 and abl-quantum sampled", explicit},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRunner(tc.opts)
			if _, err := r.AllFigures(context.Background()); err != nil {
				t.Fatal(err)
			}
			if _, err := r.ExtensionFigures(context.Background()); err != nil {
				t.Fatal(err)
			}
			ran := map[string]bool{}
			r.mu.Lock()
			for k := range r.flights {
				if strings.HasPrefix(k, "run|") {
					ran[k] = true
				}
			}
			r.mu.Unlock()
			listed := map[string]bool{}
			for _, c := range r.CampaignCells() {
				listed[c.Key()] = true
				if !ran[c.Key()] {
					t.Errorf("enumerated cell of %s never ran: %s", c.Figure, c.Key())
				}
			}
			for k := range ran {
				if !listed[k] {
					t.Errorf("ran a cell CampaignCells does not list: %s", k)
				}
			}
			t.Logf("%d cells enumerated, %d ran", len(listed), len(ran))
		})
	}
}

// TestParseFigureIDs: -sample-figures lists parse against the figure
// catalogue; blank entries are skipped, "none" is the empty set, and an
// unknown ID fails with the valid ones listed.
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
	none, _ := ParseFigureIDs("none")
	opts := RunnerOptions{Sampling: sample.Default(), SampledFigures: none}
	for _, id := range DefaultSampledFigures() {
		if opts.samplingFor(lookupFigure(id)).Enabled() {
			t.Errorf("SampledFigures none still samples %s", id)
		}
	}
}
