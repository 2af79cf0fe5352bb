package cgp

import (
	"context"
	"fmt"

	"cgp/internal/workload"
)

// The ablation studies extend the paper's evaluation along the design
// axes §3 fixes by fiat: CGHC associativity and entry width, the
// no-priority L2 FIFO, prefetching into L1I vs L2, and the §6
// all-software CGP variant. Their cells are in the figure catalogue
// (figures.go).

// CGHCWaysAblation compares the paper's direct-mapped CGHC against
// 2-way and 4-way variants. The small 1KB single-level CGHC is used
// because that is where tag conflicts actually occur (the preferred
// 2K+32K configuration has so few conflicts that associativity is
// irrelevant — itself a finding that supports the paper's
// direct-mapped choice, §3.2).
func (r *Runner) CGHCWaysAblation(ctx context.Context) (*Figure, error) {
	return r.figure(ctx, "abl-ways")
}

// CGHCSlotsAblation varies the callee slots per CGHC entry (the paper
// picks 8 from the ATOM fanout measurement).
func (r *Runner) CGHCSlotsAblation(ctx context.Context) (*Figure, error) {
	return r.figure(ctx, "abl-slots")
}

// FIFOPolicyAblation tests the §3.3 simplifications: giving demand
// misses priority over prefetches, and staging prefetches in L2 instead
// of filling L1I directly.
func (r *Runner) FIFOPolicyAblation(ctx context.Context) (*Figure, error) {
	return r.figure(ctx, "abl-policy")
}

// SoftwareCGPAblation compares hardware CGP against the §6 software
// variant (static profile-derived tables, no CGHC) and NL.
func (r *Runner) SoftwareCGPAblation(ctx context.Context) (*Figure, error) {
	return r.figure(ctx, "abl-swcgp")
}

// ExtensionFigures runs every ablation study (ExtensionFigureIDs) in
// report order: Figures of the extension set.
func (r *Runner) ExtensionFigures(ctx context.Context) ([]*Figure, error) {
	return r.Figures(ctx, ExtensionFigureIDs())
}

// DegreeSweep extends Figures 4/6 along the N axis: the paper evaluates
// CGP_2 and CGP_4; this sweeps N in {1, 2, 4, 8} to expose the
// timeliness-vs-pollution trade-off.
func (r *Runner) DegreeSweep(ctx context.Context) (*Figure, error) {
	return r.figure(ctx, "abl-degree")
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
	return r.figure(ctx, "abl-quantum")
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

// quantumCells are the quantum sweep's cells: wisc-large-2 on the OM
// binary at each quantum, one row per quantum. The rows share the
// workload label "wisc-large-2", so each speedup is relative to the
// smallest quantum's.
func (r *Runner) quantumCells() []figureCell {
	var cells []figureCell
	for _, q := range QuantumSweepQuanta() {
		cells = append(cells, figureCell{Job{r.quantumWorkload(q), Config{Layout: LayoutOM}},
			"wisc-large-2", fmt.Sprintf("quantum-%d", q)})
	}
	return cells
}
