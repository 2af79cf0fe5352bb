package cgp

import (
	"context"
	"fmt"
	"io"
	"sort"

	"cgp/internal/cpu"
	"cgp/internal/isa"
	"cgp/internal/obs"
)

// Per-function attribution reporting: the table behind "which functions
// does CGP actually help?". The rows come from Stats.Attribution (see
// internal/cpu/attribution.go for the demand-side vs issue-side
// semantics), resolved to function names through the workload's laid-out
// image, ranked by prefetch-relevant demand traffic and cut to the
// requested top N. Everything here is derived from deterministic
// simulator counters, so the table is replay-stable and safe to embed
// in report bodies.

// AttrRow is one function's row of an attribution table.
type AttrRow struct {
	// Name is the registry name of the function ("(pre-main)" for the
	// synthetic address-0 row that collects fetches before the first
	// call event).
	Name string
	// Func is the function's start address in this image.
	Func isa.Addr
	// FuncAttribution carries the raw counters and derived metrics.
	cpu.FuncAttribution
}

// AttributionTable is the per-function prefetch breakdown of one
// (workload, config) cell.
type AttributionTable struct {
	Workload string
	Config   string
	// TotalFuncs is how many functions were attributed before the
	// top-N cut.
	TotalFuncs int
	Rows       []AttrRow
}

// rankAttribution returns the top n per-function rows (n <= 0 means
// every row), ranked by prefetch-relevant demand traffic
// (AttrCounters.Demand, descending), ties broken by start address so
// the order is deterministic. rows is not modified.
func rankAttribution(rows []cpu.FuncAttribution, n int) []cpu.FuncAttribution {
	ranked := append([]cpu.FuncAttribution(nil), rows...)
	sort.SliceStable(ranked, func(i, j int) bool {
		di, dj := ranked[i].Demand(), ranked[j].Demand()
		if di != dj {
			return di > dj
		}
		return ranked[i].Func < ranked[j].Func
	})
	if n > 0 && len(ranked) > n {
		ranked = ranked[:n]
	}
	return ranked
}

// AttributionTable simulates (or serves from cache) one cell and
// returns its top-n attribution rows in rankAttribution order. n <= 0
// means every function. The runner must have been built with
// Attribution set; otherwise the result carries no rows to tabulate
// and an error says so.
func (r *Runner) AttributionTable(ctx context.Context, w *Workload, cfg Config, n int) (*AttributionTable, error) {
	if !r.opts.Attribution {
		return nil, fmt.Errorf("cgp: attribution table requires RunnerOptions.Attribution")
	}
	cfg = cfg.withDefaults()
	res, err := r.Run(ctx, w, cfg)
	if err != nil {
		return nil, err
	}
	img, err := r.imageFor(ctx, w, cfg.Layout)
	if err != nil {
		return nil, err
	}
	t := &AttributionTable{
		Workload:   w.Name,
		Config:     cfg.Label(),
		TotalFuncs: len(res.CPU.Attribution),
	}
	ranked := rankAttribution(res.CPU.Attribution, n)
	t.Rows = make([]AttrRow, 0, len(ranked))
	for _, fa := range ranked {
		name := "(pre-main)"
		if fa.Func != 0 {
			if fn, ok := img.FuncAt(fa.Func); ok && img.Start(fn) == fa.Func {
				name = img.Registry().Name(fn)
			} else {
				name = fmt.Sprintf("%#x", uint64(fa.Func))
			}
		}
		t.Rows = append(t.Rows, AttrRow{Name: name, Func: fa.Func, FuncAttribution: fa})
	}
	return t, nil
}

// QueryAttributionTable is the per-trace-ID prefetch breakdown of one
// (workload, config) cell, as `cgpsim -trace FILE -by-query` prints it.
// Rows exist only for workloads whose trace carries query tags (live
// captures of trace-tagged traffic); they arrive from the simulator
// already sorted by trace ID, so the table is replay-stable.
type QueryAttributionTable struct {
	Workload string
	Config   string
	Rows     []cpu.QueryAttribution
	// Log holds the serving layer's slow-query log entries by trace ID
	// once JoinQueryLog has run; each row then also shows what its
	// query cost on the wire: status, wall-clock total and stages.
	Log map[uint64]obs.QueryLogEntry
}

// JoinQueryLog reads a slow-query log (JSONL, validated by
// obs.ValidateQueryLog) and joins it into the table by trace ID,
// linking what each query cost the server in wall-clock time to what
// it cost in the simulated memory hierarchy.
func (t *QueryAttributionTable) JoinQueryLog(log io.Reader) error {
	entries, err := obs.ValidateQueryLog(log)
	if err != nil {
		return err
	}
	t.Log = make(map[uint64]obs.QueryLogEntry, len(entries))
	for _, e := range entries {
		t.Log[e.ID()] = e
	}
	return nil
}

// QueryAttributionTable simulates (or serves from cache) one cell and
// returns its per-query attribution rows. The runner must have been
// built with Attribution set, and the workload's trace must carry
// query tags (a capture of cgpserve traffic driven by -traced
// clients); both absences are errors, not empty tables, because a
// silently empty join defeats the attribution linkage's whole point.
func (r *Runner) QueryAttributionTable(ctx context.Context, w *Workload, cfg Config) (*QueryAttributionTable, error) {
	if !r.opts.Attribution {
		return nil, fmt.Errorf("cgp: query attribution table requires RunnerOptions.Attribution")
	}
	cfg = cfg.withDefaults()
	res, err := r.Run(ctx, w, cfg)
	if err != nil {
		return nil, err
	}
	if len(res.CPU.QueryAttr) == 0 {
		return nil, fmt.Errorf("cgp: workload %q carries no query trace tags (capture trace-tagged traffic: cgpserve -drive ADDR -traced)", w.Name)
	}
	return &QueryAttributionTable{
		Workload: w.Name,
		Config:   cfg.Label(),
		Rows:     res.CPU.QueryAttr,
	}, nil
}

// Markdown rendering lives with the rest of the report layer in
// report.go.
