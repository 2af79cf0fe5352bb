package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"cgp"
)

// Manifest names the slice of the campaign a run covers: a set of
// figure IDs. An empty Figures list means everything CampaignCells
// enumerates.
type Manifest struct {
	Name    string   `json:"name,omitempty"`
	Figures []string `json:"figures,omitempty"`
}

// Built-in manifest names accepted by LoadManifest (and the
// experiments -campaign flag).
const (
	// ManifestAllFigures covers every figure and ablation.
	ManifestAllFigures = "allfigures"
	// ManifestPaper covers the paper's figures 4-10 and §5.6.
	ManifestPaper = "paper"
	// ManifestExtensions covers the ablation studies.
	ManifestExtensions = "extensions"
)

// paperFigures and extensionFigures mirror AllFigures' and
// ExtensionFigures' generator lists; TestManifestCoverage keeps them
// honest against CampaignCells.
var (
	paperFigures     = []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "sec5.6"}
	extensionFigures = []string{"abl-ways", "abl-slots", "abl-policy", "abl-swcgp", "abl-degree", "abl-quantum"}
)

// LoadManifest resolves a -campaign argument: a built-in name (empty
// means allfigures), or "@path" naming a JSON manifest file.
func LoadManifest(arg string) (*Manifest, error) {
	switch arg {
	case "", ManifestAllFigures:
		return &Manifest{Name: ManifestAllFigures}, nil
	case ManifestPaper:
		return &Manifest{Name: ManifestPaper, Figures: paperFigures}, nil
	case ManifestExtensions:
		return &Manifest{Name: ManifestExtensions, Figures: extensionFigures}, nil
	}
	if path, ok := strings.CutPrefix(arg, "@"); ok {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("campaign: manifest: %w", err)
		}
		var m Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("campaign: manifest %s: %w", path, err)
		}
		if m.Name == "" {
			m.Name = path
		}
		return &m, nil
	}
	return nil, fmt.Errorf("campaign: unknown manifest %q (want %s, %s, %s or @file.json)",
		arg, ManifestAllFigures, ManifestPaper, ManifestExtensions)
}

// Jobs expands a manifest into the campaign's job list: CampaignCells
// filtered to the manifest's figures, deduplicated by cell key (a cell
// shared between figures runs once), with sequential IDs in enumeration
// order. The same runner options and manifest always yield the same
// list — partitioning and the byte-identity guarantee both lean on
// that.
func Jobs(r *cgp.Runner, m *Manifest) ([]JobSpec, error) {
	want := map[string]bool{}
	for _, f := range m.Figures {
		want[f] = true
	}
	known := map[string]bool{}
	seen := map[string]bool{}
	var jobs []JobSpec
	for _, c := range r.CampaignCells() {
		known[c.Figure] = true
		if len(want) > 0 && !want[c.Figure] {
			continue
		}
		k := c.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		jobs = append(jobs, JobSpec{ID: len(jobs), Workload: c.Workload, Config: c.Config})
	}
	for f := range want {
		if !known[f] {
			return nil, fmt.Errorf("campaign: manifest %s: unknown figure %q", m.Name, f)
		}
	}
	return jobs, nil
}
