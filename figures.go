package cgp

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"cgp/internal/cpu"
)

// Row is one bar of a figure: a workload under a configuration.
type Row struct {
	Workload string
	Config   string
	// Cycles is total execution time (Figures 4, 5, 6, 10).
	Cycles int64
	// Misses is the I-cache demand-miss count (Figure 7).
	Misses int64
	// PrefHits/DelayedHits/Useless break down prefetches (Figure 8).
	PrefHits    int64
	DelayedHits int64
	Useless     int64
	// Portion marks Figure 9 rows ("nl" or "cghc").
	Portion string
	// Speedup is relative to the figure's per-workload baseline; 0 when
	// this row or its baseline failed.
	Speedup float64
	// Estimated marks a sampled row: Cycles (and the Speedup built on
	// it) is a whole-run estimate from periodic measurement windows,
	// not a measured count, and CyclesCI is the relative half-width of
	// its 95% confidence interval (0.052 = ±5.2%). Renderers must keep
	// the annotation visible — an estimate may never print as a
	// measurement.
	Estimated bool    `json:",omitempty"`
	CyclesCI  float64 `json:",omitempty"`
	// Err marks a degraded row: the cell's simulation failed (panic,
	// cancellation, corruption past the retry budget) and the numeric
	// columns are absent. Degraded rows are rendered explicitly rather
	// than omitted, so a partial report never silently looks complete.
	Err string `json:",omitempty"`
	// Result links the full measurement (nil for degraded rows).
	Result *Result `json:"-"`
}

// Failed reports whether this row is degraded.
func (r *Row) Failed() bool { return r.Err != "" }

// Figure is one reproduced experiment.
type Figure struct {
	ID    string
	Title string
	// Baseline names the config each workload's Speedup is relative to.
	Baseline string
	Rows     []Row
}

// Degraded returns how many of the figure's rows failed.
func (f *Figure) Degraded() int {
	n := 0
	for i := range f.Rows {
		if f.Rows[i].Failed() {
			n++
		}
	}
	return n
}

// Sampled returns how many of the figure's rows carry sampled
// estimates rather than measured counts.
func (f *Figure) Sampled() int {
	n := 0
	for i := range f.Rows {
		if f.Rows[i].Estimated {
			n++
		}
	}
	return n
}

// rowErr renders a job failure for a degraded row's Err field.
func rowErr(err *JobError) string {
	if err == nil {
		return "failed"
	}
	if err.Panic != nil {
		return fmt.Sprintf("panic: %v", err.Panic)
	}
	return err.Err.Error()
}

// resultCycles returns one result's run-length figure for reporting:
// the measured cycle count for a full-detail run, or the estimated
// whole-run cycles (marked estimated, with its relative 95% CI) for a
// sampled run. The int64 conversion out of units.EstCycles is the
// explicit, sanctioned exit from the typed estimate — downstream the
// value travels with Estimated set, never as a bare measurement.
func resultCycles(res *Result) (cycles int64, estimated bool, relCI float64) {
	if sm := res.CPU.Sample; sm != nil {
		return int64(sm.EstCycles), true, sm.CycleRelCI
	}
	return int64(res.CPU.Cycles), false, 0
}

// rowMisses returns the miss count a row reports: measured for full
// runs, the whole-run estimate for sampled runs (whose raw counter
// covers only the decoded spans).
func rowMisses(res *Result) int64 {
	if sm := res.CPU.Sample; sm != nil {
		return sm.EstIMisses
	}
	return res.CPU.ICacheMisses
}

// The figure catalogue is the paper's evaluation and this repository's
// ablations as data (DESIGN.md §8): each figure's cells in row order
// and the rule that turns them into rows. The figure generators, the
// figure IDs -sample-figures accepts and the default sampled set all
// read it, so none of them can drift from another.

// figureSpec is one figure of the catalogue.
type figureSpec struct {
	id, title string
	// extension marks an ablation beyond the paper's figures: it is
	// generated by ExtensionFigures, not AllFigures.
	extension bool
	// sampled puts the figure in the default sampled set: its reported
	// quantity is total cycles, which measurement windows estimate
	// well, not a whole-run prefetch breakdown.
	sampled bool
	// cells lists the figure's jobs in row order.
	cells func(r *Runner) []figureCell
	// portions splits each cell into Figure 9's two rows, the
	// prefetches of its NL portion and of its CGHC portion, instead of
	// one grid row.
	portions bool
}

// figureCell is one job of a figure and the labels of its row. A grid
// row's speedup is relative to the first cell of its workload label.
type figureCell struct {
	job              Job
	workload, config string
}

// grid is the cells rule of a grid figure: every workload under every
// config, each row labeled by its workload's name and label(config),
// so each workload's first config is its baseline.
func grid(workloads func(*Runner) []*Workload, label func(Config) string, configs ...Config) func(*Runner) []figureCell {
	return func(r *Runner) []figureCell {
		var cells []figureCell
		for _, w := range workloads(r) {
			for _, cfg := range configs {
				cells = append(cells, figureCell{Job{w, cfg}, w.Name, label(cfg)})
			}
		}
		return cells
	}
}

// cghcLabel labels grid rows by CGHC geometry instead of config Label.
func cghcLabel(c Config) string { return c.CGHC.String() }

// figureCatalogue lists every figure in report order: the paper's
// Figures 4-10 and the §5.6 run-ahead result, then the ablations.
var figureCatalogue = []figureSpec{
	{id: "fig4", title: "Performance comparison of O5, OM and CGP", sampled: true,
		cells: grid((*Runner).DBWorkloads, Config.Label,
			Config{Layout: LayoutO5},
			Config{Layout: LayoutOM},
			Config{Layout: LayoutO5, Prefetcher: PrefCGP, Degree: 2},
			Config{Layout: LayoutO5, Prefetcher: PrefCGP, Degree: 4},
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 2},
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4})},
	{id: "fig5", title: "Performance of five CGHC configurations", sampled: true,
		cells: grid((*Runner).DBWorkloads, cghcLabel,
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4, CGHC: CGHCConfig{L1Bytes: 1 * 1024}},
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4, CGHC: CGHCConfig{L1Bytes: 32 * 1024}},
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4, CGHC: CGHCConfig{L1Bytes: 1 * 1024, L2Bytes: 16 * 1024}},
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4, CGHC: CGHCConfig{L1Bytes: 2 * 1024, L2Bytes: 32 * 1024}},
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4, CGHC: CGHCConfig{Infinite: true}})},
	{id: "fig6", title: "Performance comparison of O5, OM, NL and CGP", sampled: true,
		cells: grid((*Runner).DBWorkloads, Config.Label,
			Config{Layout: LayoutO5},
			Config{Layout: LayoutOM},
			Config{Layout: LayoutOM, Prefetcher: PrefNL, Degree: 2},
			Config{Layout: LayoutOM, Prefetcher: PrefNL, Degree: 4},
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 2},
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4},
			Config{Layout: LayoutOM, PerfectICache: true})},
	{id: "fig7", title: "I-cache miss comparison of O5, OM, NL and CGP",
		cells: grid((*Runner).DBWorkloads, Config.Label,
			Config{Layout: LayoutO5},
			Config{Layout: LayoutOM},
			Config{Layout: LayoutOM, Prefetcher: PrefNL, Degree: 4},
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4})},
	{id: "fig8", title: "Prefetch effectiveness of NL and CGP",
		cells: grid((*Runner).DBWorkloads, Config.Label,
			Config{Layout: LayoutOM, Prefetcher: PrefNL, Degree: 2},
			Config{Layout: LayoutOM, Prefetcher: PrefNL, Degree: 4},
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 2},
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4})},
	{id: "fig9", title: "CGP_4 prefetches due to NL and CGHC", portions: true,
		cells: grid((*Runner).DBWorkloads, Config.Label,
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4})},
	{id: "fig10", title: "Effectiveness of CGP on CPU2000 applications", sampled: true,
		cells: grid((*Runner).CPU2000Workloads, Config.Label,
			Config{Layout: LayoutOM},
			Config{Layout: LayoutOM, Prefetcher: PrefNL, Degree: 4},
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4},
			Config{Layout: LayoutOM, PerfectICache: true})},
	{id: "sec5.6", title: "Run-ahead NL ablation", sampled: true,
		cells: grid((*Runner).DBWorkloads, Config.Label,
			Config{Layout: LayoutOM, Prefetcher: PrefNL, Degree: 4},
			Config{Layout: LayoutOM, Prefetcher: PrefRunAheadNL, Degree: 4, RunAheadM: 4},
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4})},
	{id: "abl-ways", title: "CGHC associativity ablation (CGP_4, 1K single-level)", extension: true, sampled: true,
		cells: grid((*Runner).DBWorkloads, cghcLabel,
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4, CGHC: CGHCConfig{L1Bytes: 1024, Ways: 1}},
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4, CGHC: CGHCConfig{L1Bytes: 1024, Ways: 2}},
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4, CGHC: CGHCConfig{L1Bytes: 1024, Ways: 4}})},
	{id: "abl-slots", title: "CGHC entry-width ablation (CGP_4, 2K+32K)", extension: true, sampled: true,
		cells: grid((*Runner).DBWorkloads, cghcLabel,
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4, CGHC: CGHCConfig{L1Bytes: 2 * 1024, L2Bytes: 32 * 1024, Slots: 2}},
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4, CGHC: CGHCConfig{L1Bytes: 2 * 1024, L2Bytes: 32 * 1024, Slots: 4}},
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4, CGHC: CGHCConfig{L1Bytes: 2 * 1024, L2Bytes: 32 * 1024, Slots: 8}})},
	{id: "abl-policy", title: "L2 interface policy ablation (§3.3 choices)", extension: true, sampled: true,
		cells: grid((*Runner).DBWorkloads, Config.Label,
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4},
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4, DemandPriority: true},
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4, PrefetchIntoL2Only: true})},
	{id: "abl-swcgp", title: "Software CGP (§6 variant) vs hardware CGP", extension: true, sampled: true,
		cells: grid((*Runner).DBWorkloads, Config.Label,
			Config{Layout: LayoutOM, Prefetcher: PrefNL, Degree: 4},
			Config{Layout: LayoutOM, Prefetcher: PrefSoftwareCGP, Degree: 4},
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4})},
	{id: "abl-degree", title: "CGP_N degree sweep (OM binary)", extension: true, sampled: true,
		cells: grid((*Runner).DBWorkloads, Config.Label,
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 1},
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 2},
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4},
			Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 8})},
	{id: "abl-quantum", title: "Context-switch quantum sensitivity (wisc-large-2, OM)", extension: true,
		cells: (*Runner).quantumCells},
}

// lookupFigure returns the catalogue entry id, or nil.
func lookupFigure(id string) *figureSpec {
	for i := range figureCatalogue {
		if figureCatalogue[i].id == id {
			return &figureCatalogue[i]
		}
	}
	return nil
}

// figureIDs lists the IDs of the catalogue entries keep selects, in
// report order.
func figureIDs(keep func(*figureSpec) bool) []string {
	var ids []string
	for i := range figureCatalogue {
		if keep(&figureCatalogue[i]) {
			ids = append(ids, figureCatalogue[i].id)
		}
	}
	return ids
}

// PaperFigureIDs lists the paper's figures in report order: the set
// AllFigures generates.
func PaperFigureIDs() []string {
	return figureIDs(func(f *figureSpec) bool { return !f.extension })
}

// ExtensionFigureIDs lists the ablation studies in report order: the
// set ExtensionFigures generates.
func ExtensionFigureIDs() []string {
	return figureIDs(func(f *figureSpec) bool { return f.extension })
}

// DefaultSampledFigures is the figure set RunnerOptions.Sampling
// applies to when SampledFigures is nil: every figure whose reported
// quantity is total cycles (well-estimated from windows), none whose
// quantity is a whole-run prefetch breakdown.
func DefaultSampledFigures() []string {
	return figureIDs(func(f *figureSpec) bool { return f.sampled })
}

// ParseFigureIDs parses a comma-separated list of figure IDs, the
// syntax of experiments -sample-figures, into a SampledFigures value.
// Blank entries are skipped, and a list without IDs yields nil (the
// default set); the word "none" alone names the empty set. An ID the
// catalogue does not hold is an error that lists the valid ones.
func ParseFigureIDs(s string) ([]string, error) {
	if strings.TrimSpace(s) == "none" {
		return []string{}, nil
	}
	var ids []string
	for _, id := range strings.Split(s, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if lookupFigure(id) == nil {
			all := figureIDs(func(*figureSpec) bool { return true })
			return nil, fmt.Errorf("cgp: unknown figure %q (figures: %s)", id, strings.Join(all, ", "))
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// cellsOf lists f's cells, adding the campaign's sampling schedule to
// each config that has none when f is in the sampled set.
func (r *Runner) cellsOf(f *figureSpec) []figureCell {
	cells := f.cells(r)
	if scfg := r.opts.samplingFor(f); scfg.Enabled() {
		for i := range cells {
			if !cells[i].job.Config.Sampling.Enabled() {
				cells[i].job.Config.Sampling = scfg
			}
		}
	}
	return cells
}

// figures measures the cells of specs through one RunAll and builds
// each figure's rows in cell order from its results, regardless of
// which simulations finished first. The plan holds every cell once,
// however many figures share it, so each (workload, layout) stream runs
// in one pass. With byCost the plan lists its streams costliest first
// (planOrder); otherwise it keeps row order, the order a lone figure
// keeps so that concurrent callers of single figures reach a shared
// stream's hub together instead of each starting its largest stream.
//
// A partially failed plan still yields every figure: failed cells
// become degraded rows (Err set, numbers absent), and the figure's
// failures come back as a *CampaignError indexed by the figure's own
// cells, so the caller can report and exit non-zero.
func (r *Runner) figures(ctx context.Context, specs []*figureSpec, byCost bool) ([]*Figure, []error) {
	cells := make([][]figureCell, len(specs))
	ids := make([]string, len(specs))
	var jobs []Job
	planned := map[string]bool{}
	for i, f := range specs {
		ids[i], cells[i] = f.id, r.cellsOf(f)
		for _, c := range cells[i] {
			if k := jobKey(c.job); !planned[k] {
				planned[k] = true
				jobs = append(jobs, c.job)
			}
		}
	}
	if byCost {
		r.planOrder(jobs)
	}
	// A figure span groups the plan's campaign in the Chrome trace, so
	// the Perfetto timeline shows which figures its passes served.
	sp := r.obsSpan("figure", "figure").Arg("ids", strings.Join(ids, ",")).Arg("cells", fmt.Sprint(len(jobs)))
	results, err := r.RunAll(ctx, jobs)
	sp.End()
	done := make(map[string]*Result, len(jobs))
	for i, j := range jobs {
		done[jobKey(j)] = results[i]
	}
	failed := map[string]*JobError{}
	var camp *CampaignError
	if errors.As(err, &camp) {
		for _, je := range camp.Jobs {
			failed[jobKey(jobs[je.Index])] = je
		}
	}
	figs := make([]*Figure, len(specs))
	errs := make([]error, len(specs))
	for i, f := range specs {
		figs[i], errs[i] = f.build(cells[i], done, failed)
	}
	return figs, errs
}

// jobKey is a job's run key, which dedupes a plan.
func jobKey(j Job) string { return cellKey(j.Workload.Name, j.Config.withDefaults()) }

// planOrder sorts a plan's jobs by the expected cost of their stream,
// largest first. RunAll hands out worker slots in that order, so the
// longest pass starts first instead of being left to start last. A
// stream's cost is its cells times the event count of its workload, as
// a pass has counted it (Runner.events). A workload no pass has run yet
// ranks as the largest one seen, an upper bound on its size, so among
// equal costs the counted streams go first; other ties keep plan order.
func (r *Runner) planOrder(jobs []Job) {
	stream := func(j Job) string { return recKey(j.Workload, j.Config.withDefaults().Layout) }
	cells := map[string]int64{}
	for _, j := range jobs {
		cells[stream(j)]++
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	largest := int64(1)
	for _, n := range r.events {
		largest = max(largest, n) //cgplint:ignore maporder a maximum is the same in any iteration order
	}
	// rank is twice the cost, plus one for a counted workload.
	rank := func(j Job) int64 {
		n, counted := r.events[j.Workload.Name]
		if !counted {
			return 2 * cells[stream(j)] * largest
		}
		return 2*cells[stream(j)]*n + 1
	}
	slices.SortStableFunc(jobs, func(a, b Job) int { return cmp.Compare(rank(b), rank(a)) })
}

// build turns f's cells' results into its figure, and its failed cells
// into degraded rows and a *CampaignError indexed by cell.
func (f *figureSpec) build(cells []figureCell, done map[string]*Result, failed map[string]*JobError) (*Figure, error) {
	fig := &Figure{ID: f.id, Title: f.title, Baseline: cells[0].config}
	base := map[string]*Result{}
	var jes []*JobError
	for i, c := range cells {
		res, je := done[jobKey(c.job)], failed[jobKey(c.job)]
		if je != nil {
			je = jobError(c.job, i, je)
			jes = append(jes, je)
		}
		if _, ok := base[c.workload]; !ok {
			base[c.workload] = res
		}
		if f.portions {
			fig.Rows = append(fig.Rows, portionRows(c, res, je)...)
		} else {
			fig.Rows = append(fig.Rows, gridRow(c, res, base[c.workload], je))
		}
	}
	if jes != nil {
		return fig, &CampaignError{Jobs: jes}
	}
	return fig, nil
}

// gridRow is one cell's row: its cycles, I-cache misses and prefetch
// totals, and its speedup over base, the first cell of its workload
// (0 when either failed).
func gridRow(c figureCell, res, base *Result, je *JobError) Row {
	if res == nil {
		return Row{Workload: c.workload, Config: c.config, Err: rowErr(je)}
	}
	cycles, estimated, relCI := resultCycles(res)
	speedup := 0.0
	if base != nil {
		bc, _, _ := resultCycles(base)
		speedup = float64(bc) / float64(cycles)
	}
	tp := res.CPU.TotalPrefetch()
	return Row{
		Workload:    c.workload,
		Config:      c.config,
		Cycles:      cycles,
		Misses:      rowMisses(res),
		PrefHits:    tp.PrefHits,
		DelayedHits: tp.DelayedHits,
		Useless:     tp.Useless,
		Speedup:     speedup,
		Estimated:   estimated,
		CyclesCI:    relCI,
		Result:      res,
	}
}

// portionRows are Figure 9's two rows for one CGP_4 cell: the
// prefetches its NL portion issued and those its CGHC portion issued.
// A sampled cell's rows are marked Estimated, since its counters cover
// only the measured windows.
func portionRows(c figureCell, res *Result, je *JobError) []Row {
	rows := []Row{
		{Workload: c.workload, Config: "CGP_4/NL-portion", Portion: "nl"},
		{Workload: c.workload, Config: "CGP_4/CGHC-portion", Portion: "cghc"},
	}
	if res == nil {
		rows[0].Err, rows[1].Err = rowErr(je), rowErr(je)
		return rows
	}
	for i, ps := range []cpu.PrefetchStats{res.CPU.NL, res.CPU.CGHC} {
		rows[i].PrefHits, rows[i].DelayedHits, rows[i].Useless = ps.PrefHits, ps.DelayedHits, ps.Useless
		rows[i].Estimated = res.CPU.Sample != nil
		rows[i].Result = res
	}
	return rows
}

// figure generates the catalogue figure id.
func (r *Runner) figure(ctx context.Context, id string) (*Figure, error) {
	figs, errs := r.figures(ctx, []*figureSpec{lookupFigure(id)}, false)
	return figs[0], errs[0]
}

// Figures generates the catalogue figures ids (PaperFigureIDs,
// ExtensionFigureIDs or any mix of them) from one plan, ordered by
// stream cost, so each stream of the whole set runs in one pass, and
// returns them in ids order. Results are deterministic and identical to
// generating each figure alone. Failures degrade rather than abort:
// every figure is returned, partial ones with their degraded rows, and
// the error joins every figure's failure. An ID the catalogue does not
// hold is an error, and nothing runs.
func (r *Runner) Figures(ctx context.Context, ids []string) ([]*Figure, error) {
	specs := make([]*figureSpec, len(ids))
	for i, id := range ids {
		if specs[i] = lookupFigure(id); specs[i] == nil {
			return nil, fmt.Errorf("cgp: unknown figure %q", id)
		}
	}
	figs, errs := r.figures(ctx, specs, true)
	for i, err := range errs {
		if err != nil {
			errs[i] = fmt.Errorf("cgp: %s: %w", ids[i], err)
		}
	}
	return figs, errors.Join(errs...)
}

// Figure4 reproduces the O5 / OM / CGP_2 / CGP_4 cycle comparison on
// the four database workloads.
func (r *Runner) Figure4(ctx context.Context) (*Figure, error) { return r.figure(ctx, "fig4") }

// Figure5 reproduces the CGHC design-space sweep: CGP_4 on the OM
// binary with five CGHC configurations.
func (r *Runner) Figure5(ctx context.Context) (*Figure, error) { return r.figure(ctx, "fig5") }

// Figure6 reproduces the NL-vs-CGP comparison: O5, OM, OM+NL_2/4,
// OM+CGP_2/4 and the perfect I-cache.
func (r *Runner) Figure6(ctx context.Context) (*Figure, error) { return r.figure(ctx, "fig6") }

// Figure7 reproduces the I-cache miss comparison of O5, OM, OM+NL_4 and
// OM+CGP_4.
func (r *Runner) Figure7(ctx context.Context) (*Figure, error) { return r.figure(ctx, "fig7") }

// Figure8 reproduces the prefetch-effectiveness breakdown (pref hits /
// delayed hits / useless) for NL_2, NL_4, CGP_2, CGP_4 on the OM binary.
func (r *Runner) Figure8(ctx context.Context) (*Figure, error) { return r.figure(ctx, "fig8") }

// Figure9 reproduces the CGP_4 prefetch split: the NL portion vs the
// CGHC portion, each with useful (hits+delayed) and useless counts.
func (r *Runner) Figure9(ctx context.Context) (*Figure, error) { return r.figure(ctx, "fig9") }

// Figure10 reproduces the CPU2000 study: O5+OM, OM+NL_4, OM+CGP_4 and
// perfect I-cache on the seven SPEC stand-ins.
func (r *Runner) Figure10(ctx context.Context) (*Figure, error) { return r.figure(ctx, "fig10") }

// RunAheadAblation reproduces the §5.6 experiment whose results the
// paper describes but does not plot: run-ahead NL is much worse than
// plain NL on the database workloads.
func (r *Runner) RunAheadAblation(ctx context.Context) (*Figure, error) {
	return r.figure(ctx, "sec5.6")
}

// AllFigures runs every experiment of the paper (PaperFigureIDs) in
// report order: Figures of the paper's set.
func (r *Runner) AllFigures(ctx context.Context) ([]*Figure, error) {
	return r.Figures(ctx, PaperFigureIDs())
}
