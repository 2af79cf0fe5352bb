package cgp

import "fmt"

// Campaign cell enumeration (DESIGN.md §15).
//
// A distributed campaign needs the full set of (workload, config)
// cells the figure generators will request, enumerated up front so a
// coordinator can partition them across worker processes. The
// enumeration and the generators read the same figure catalogue
// through cellsOf, so every enumerated cell is one a generator
// requests, with the same config fingerprint and checkpoint key. The
// merge step closes the loop: it runs the ordinary generators over a
// checkpoint directory populated from the enumerated cells, so a cell
// missing there is recomputed in-process — merge output is correct
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
// pair: the runner's flight key for the cell and the key checkpoint
// records embed. Exported for the campaign coordinator, which tracks
// streamed records by this key.
func CellKey(workloadName string, cfg Config) string {
	return "run|" + workloadName + "|" + cfg.fingerprint()
}

// WorkloadByName resolves the name of a workload some figure's cells
// use, at this runner's scale: the four database workloads, the seven
// CPU2000 stand-ins, and the quantum sweep's "wisc-large-2/q<N>"
// (see quantumWorkload). Campaign workers use it to reify wire-format
// job specs, which carry workload names, back into runnable jobs.
func (r *Runner) WorkloadByName(name string) (*Workload, error) {
	for i := range figureCatalogue {
		for _, c := range figureCatalogue[i].cells(r) {
			if c.job.Workload.Name == name {
				return c.job.Workload, nil
			}
		}
	}
	return nil, fmt.Errorf("cgp: unknown workload %q", name)
}

// CampaignCells enumerates every cell AllFigures and ExtensionFigures
// will request, figure by figure in report order, with the campaign's
// sampling schedule applied as the generators apply it (cellsOf).
// Cells shared between figures appear once per figure; callers
// deduplicate by Key after filtering to the figures they want, because
// a cell's first-owning figure is a presentation detail, not an
// identity.
func (r *Runner) CampaignCells() []CampaignCell {
	var cells []CampaignCell
	for i := range figureCatalogue {
		f := &figureCatalogue[i]
		for _, c := range r.cellsOf(f) {
			cells = append(cells, CampaignCell{Figure: f.id, Workload: c.job.Workload.Name, Config: c.job.Config})
		}
	}
	return cells
}
