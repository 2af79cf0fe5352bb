package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"cgp/internal/obs"
)

// writeTrace writes a traced run's files under cfg.out/<workload>: the
// given Chrome trace files, each checked with obs.ValidateChromeTrace,
// and layers.json with the per-layer metrics and every check.
func writeTrace(cfg runConfig, name string, o *outcome, chrome map[string][]byte) error {
	dir := filepath.Join(cfg.out, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := make([]string, 0, len(chrome))
	for f := range chrome {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		err := obs.ValidateChromeTrace(chrome[f])
		o.check("chrome trace valid", err == nil, "%s: %v", f, errOrOK(err))
		if err := os.WriteFile(filepath.Join(dir, f), chrome[f], 0o644); err != nil {
			return err
		}
	}
	type checkJSON struct {
		Name   string `json:"name"`
		OK     bool   `json:"ok"`
		Detail string `json:"detail"`
	}
	doc := struct {
		Workload string             `json:"workload"`
		Meta     string             `json:"meta"`
		Metrics  map[string]float64 `json:"metrics"`
		Checks   []checkJSON        `json:"checks"`
	}{Workload: name, Meta: hostMeta(cfg.seed), Metrics: o.layers}
	for _, c := range o.checks {
		doc.Checks = append(doc.Checks, checkJSON{c.name, c.ok, c.detail})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("layers.json: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(data, '\n'), 0o644)
}

func errOrOK(err error) string {
	if err != nil {
		return err.Error()
	}
	return "ok"
}
