package cgp

import (
	"fmt"
	"strconv"
	"strings"
)

// Campaign cell enumeration (DESIGN.md §15).
//
// A distributed campaign needs the full set of (workload, config)
// cells the figure generators will request, enumerated up front so a
// coordinator can partition them across worker processes. The figure
// generators themselves stay the source of truth for what each figure
// renders; this file shares their config lists (fig4Configs,
// ablWaysConfigs, ...) so the enumeration cannot drift from the grids.
// The merge step closes the loop: it runs the ordinary generators over
// a checkpoint directory populated from the enumerated cells, so a
// cell missing here is recomputed in-process — merge output is correct
// either way, distribution is purely a wall-clock optimization.

// CampaignCell is one enumerated cell of the figure campaign: a
// workload under a config on behalf of a figure.
type CampaignCell struct {
	Figure   string
	Workload string
	Config   Config
}

// Key identifies the cell for deduplication and coordinator
// bookkeeping: its run cache key.
func (c CampaignCell) Key() string { return CellKey(c.Workload, c.Config) }

// CellKey returns the run cache key for a (workload name, config)
// pair — the key checkpoint records embed. Exported for the campaign
// coordinator, which tracks streamed records by this key.
func CellKey(workloadName string, cfg Config) string {
	return "run|" + workloadName + "|" + cfg.fingerprint()
}

// WorkloadByName resolves one of the campaign's workloads at this
// runner's scale: the four database workloads, the seven CPU2000
// stand-ins, or a quantum-sweep workload ("wisc-large-2/q<N>", see
// quantumWorkload). Campaign workers use it to reify wire-format job
// specs, which carry workload names, back into runnable jobs.
func (r *Runner) WorkloadByName(name string) (*Workload, error) {
	for _, w := range r.DBWorkloads() {
		if w.Name == name {
			return w, nil
		}
	}
	for _, w := range r.CPU2000Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	if q, ok := strings.CutPrefix(name, "wisc-large-2/q"); ok {
		// Only the canonical name of a quantum other than the runner's
		// own resolves, so each workload has exactly one name.
		if n, err := strconv.Atoi(q); err == nil && n > 0 {
			if w := r.quantumWorkload(n); w.Name == name {
				return w, nil
			}
		}
	}
	return nil, fmt.Errorf("cgp: unknown workload %q", name)
}

// CampaignCells enumerates every cell AllFigures and ExtensionFigures
// will request, figure by figure in paper order, with the campaign's
// sampling schedule applied exactly as runGridLabeled applies it (a
// figure in the sampled set gets the schedule folded into each cell's
// config, so its cells' fingerprints — and checkpoint keys — match
// what the generator will look up). Cells shared between figures
// appear once per figure; callers deduplicate by Key after filtering
// to the figures they want, because a cell's first-owning figure is a
// presentation detail, not an identity.
func (r *Runner) CampaignCells() []CampaignCell {
	db := r.DBWorkloads()
	grids := []struct {
		id        string
		workloads []*Workload
		configs   []Config
	}{
		{"fig4", db, fig4Configs()},
		{"fig5", db, fig5Configs()},
		{"fig6", db, fig6Configs()},
		{"fig7", db, fig7Configs()},
		{"fig8", db, fig8Configs()},
		{"fig9", db, []Config{fig9Config()}},
		{"fig10", r.CPU2000Workloads(), fig10Configs()},
		{"sec5.6", db, sec56Configs()},
		{"abl-ways", db, ablWaysConfigs()},
		{"abl-slots", db, ablSlotsConfigs()},
		{"abl-policy", db, ablPolicyConfigs()},
		{"abl-swcgp", db, ablSwcgpConfigs()},
		{"abl-degree", db, ablDegreeConfigs()},
	}
	var cells []CampaignCell
	for _, g := range grids {
		scfg := r.opts.samplingFor(g.id)
		for _, w := range g.workloads {
			for _, cfg := range g.configs {
				if scfg.Enabled() && !cfg.Sampling.Enabled() {
					cfg.Sampling = scfg
				}
				cells = append(cells, CampaignCell{Figure: g.id, Workload: w.Name, Config: cfg})
			}
		}
	}
	qcfg := Config{Layout: LayoutOM, Sampling: r.opts.samplingFor("abl-quantum")}
	for _, q := range QuantumSweepQuanta() {
		cells = append(cells, CampaignCell{Figure: "abl-quantum", Workload: r.quantumWorkload(q).Name, Config: qcfg})
	}
	return cells
}
