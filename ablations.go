package cgp

import (
	"context"
	"fmt"

	"cgp/internal/workload"
)

// The ablation studies extend the paper's evaluation along the design
// axes §3 fixes by fiat: CGHC associativity and entry width, the
// no-priority L2 FIFO, prefetching into L1I vs L2, and the §6
// all-software CGP variant.

// cghcLabel labels grid rows by CGHC geometry instead of config Label.
func cghcLabel(c Config) string { return c.CGHC.String() }

// CGHCWaysAblation compares the paper's direct-mapped CGHC against
// 2-way and 4-way variants. The small 1KB single-level CGHC is used
// because that is where tag conflicts actually occur (the preferred
// 2K+32K configuration has so few conflicts that associativity is
// irrelevant — itself a finding that supports the paper's
// direct-mapped choice, §3.2).
func (r *Runner) CGHCWaysAblation(ctx context.Context) (*Figure, error) {
	return r.runGridLabeled(ctx, "abl-ways", "CGHC associativity ablation (CGP_4, 1K single-level)",
		r.DBWorkloads(), ablWaysConfigs(), cghcLabel)
}

// ablWaysConfigs are the associativity ablation's three design points.
func ablWaysConfigs() []Config {
	var configs []Config
	for _, ways := range []int{1, 2, 4} {
		configs = append(configs, Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4,
			CGHC: CGHCConfig{L1Bytes: 1024, Ways: ways}})
	}
	return configs
}

// CGHCSlotsAblation varies the callee slots per CGHC entry (the paper
// picks 8 from the ATOM fanout measurement).
func (r *Runner) CGHCSlotsAblation(ctx context.Context) (*Figure, error) {
	return r.runGridLabeled(ctx, "abl-slots", "CGHC entry-width ablation (CGP_4, 2K+32K)",
		r.DBWorkloads(), ablSlotsConfigs(), cghcLabel)
}

// ablSlotsConfigs are the entry-width ablation's three design points.
func ablSlotsConfigs() []Config {
	var configs []Config
	for _, slots := range []int{2, 4, 8} {
		configs = append(configs, Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4,
			CGHC: CGHCConfig{L1Bytes: 2 * 1024, L2Bytes: 32 * 1024, Slots: slots}})
	}
	return configs
}

// FIFOPolicyAblation tests the §3.3 simplifications: giving demand
// misses priority over prefetches, and staging prefetches in L2 instead
// of filling L1I directly.
func (r *Runner) FIFOPolicyAblation(ctx context.Context) (*Figure, error) {
	return r.runGrid(ctx, "abl-policy", "L2 interface policy ablation (§3.3 choices)",
		r.DBWorkloads(), ablPolicyConfigs())
}

// ablPolicyConfigs are the §3.3 policy ablation's three design points.
func ablPolicyConfigs() []Config {
	return []Config{
		{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4},
		{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4, DemandPriority: true},
		{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4, PrefetchIntoL2Only: true},
	}
}

// SoftwareCGPAblation compares hardware CGP against the §6 software
// variant (static profile-derived tables, no CGHC) and NL.
func (r *Runner) SoftwareCGPAblation(ctx context.Context) (*Figure, error) {
	return r.runGrid(ctx, "abl-swcgp", "Software CGP (§6 variant) vs hardware CGP",
		r.DBWorkloads(), ablSwcgpConfigs())
}

// ablSwcgpConfigs are the software-CGP ablation's three design points.
func ablSwcgpConfigs() []Config {
	return []Config{
		{Layout: LayoutOM, Prefetcher: PrefNL, Degree: 4},
		{Layout: LayoutOM, Prefetcher: PrefSoftwareCGP, Degree: 4},
		{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: 4},
	}
}

// ExtensionFigures runs every ablation study. Like AllFigures, the
// generators run concurrently with deterministic results.
func (r *Runner) ExtensionFigures(ctx context.Context) ([]*Figure, error) {
	return runFigureGens(ctx, []figureGen{
		{"abl-ways", r.CGHCWaysAblation},
		{"abl-slots", r.CGHCSlotsAblation},
		{"abl-policy", r.FIFOPolicyAblation},
		{"abl-swcgp", r.SoftwareCGPAblation},
		{"abl-degree", r.DegreeSweep},
		{"abl-quantum", r.QuantumSweep},
	})
}

// DegreeSweep extends Figures 4/6 along the N axis: the paper evaluates
// CGP_2 and CGP_4; this sweeps N in {1, 2, 4, 8} to expose the
// timeliness-vs-pollution trade-off.
func (r *Runner) DegreeSweep(ctx context.Context) (*Figure, error) {
	return r.runGrid(ctx, "abl-degree", "CGP_N degree sweep (OM binary)", r.DBWorkloads(), ablDegreeConfigs())
}

// ablDegreeConfigs are the degree sweep's four design points.
func ablDegreeConfigs() []Config {
	var configs []Config
	for _, n := range []int{1, 2, 4, 8} {
		configs = append(configs, Config{Layout: LayoutOM, Prefetcher: PrefCGP, Degree: n})
	}
	return configs
}

// QuantumSweep varies the scheduler's context-switch quantum on
// wisc-large-2 (OM binary, no prefetching). The paper's premise (§2,
// citing Franklin et al.) is that frequent context switches inflate
// database I-cache miss rates; the sweep makes that mechanism visible:
// smaller quanta mean more switches and more misses per instruction.
// Each quantum is a workload parameter (quantumWorkload), so the
// sweep's cells are ordinary RunAll jobs: the cell at the runner's own
// quantum is its wisc-large-2 O5+OM cell, and every cell gets the
// campaign's checkpoints, observability and attribution.
func (r *Runner) QuantumSweep(ctx context.Context) (*Figure, error) {
	fig := &Figure{ID: "abl-quantum", Title: "Context-switch quantum sensitivity (wisc-large-2, OM)", Baseline: "quantum-2"}
	// abl-quantum is not in the default sampled set, but an explicit
	// SampledFigures entry is honored.
	cfg := Config{Layout: LayoutOM, Sampling: r.opts.samplingFor(fig.ID)}
	quanta := QuantumSweepQuanta()
	jobs := make([]Job, len(quanta))
	for i, q := range quanta {
		jobs[i] = Job{Workload: r.quantumWorkload(q), Config: cfg}
	}
	results, err := r.RunAll(ctx, jobs)
	if err != nil {
		return nil, err
	}
	base, _, _ := resultCycles(results[0])
	for i, res := range results {
		cycles, estimated, relCI := resultCycles(res)
		fig.Rows = append(fig.Rows, Row{
			Workload: "wisc-large-2", Config: fmt.Sprintf("quantum-%d", quanta[i]),
			Cycles: cycles, Misses: rowMisses(res),
			Speedup:   float64(base) / float64(cycles),
			Estimated: estimated, CyclesCI: relCI, Result: res,
		})
	}
	return fig, nil
}

// QuantumSweepQuanta lists the scheduler quanta the sweep visits, in
// figure order.
func QuantumSweepQuanta() []int { return []int{2, 7, 28, 112} }

// quantumWorkload returns wisc-large-2 at scheduler quantum q and this
// runner's scale: the runner's own wisc-large-2 at its own quantum,
// else the distinct workload "wisc-large-2/q<q>".
func (r *Runner) quantumWorkload(q int) *Workload {
	return workload.WiscLarge2Quantum(r.opts.DB, q)
}
