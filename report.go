package cgp

import (
	"context"
	"fmt"
	"math"
	"strings"

	"cgp/internal/cpu"
	"cgp/internal/obs"
	"cgp/internal/program"
)

// Markdown renders the figure as a GitHub-style table. Degraded rows
// (failed simulations) are rendered explicitly with their failure,
// never silently omitted, and a banner above the table counts them.
func (f *Figure) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", strings.ToUpper(f.ID[:1])+f.ID[1:], f.Title)
	if n := f.Degraded(); n > 0 {
		fmt.Fprintf(&b, "> **Degraded:** %d of %d rows failed; their cells are marked below.\n\n", n, len(f.Rows))
	}
	if n := f.Sampled(); n > 0 {
		fmt.Fprintf(&b, "> **Sampled:** %d of %d rows are sampled estimates, marked `~value ±CI` (relative 95%% confidence half-width).\n\n", n, len(f.Rows))
	}
	switch f.ID {
	case "fig7":
		b.WriteString("| workload | config | I-cache misses | vs O5 |\n|---|---|---:|---:|\n")
		base := map[string]int64{}
		for _, r := range f.Rows {
			if r.Failed() {
				fmt.Fprintf(&b, "| %s | %s | _failed: %s_ | — |\n", r.Workload, r.Config, r.Err)
				continue
			}
			if r.Config == f.Baseline {
				base[r.Workload] = r.Misses
			}
			frac := "—"
			if base[r.Workload] > 0 {
				frac = fmt.Sprintf("%.2f", float64(r.Misses)/float64(base[r.Workload]))
			}
			misses := fmt.Sprintf("%d", r.Misses)
			if r.Estimated {
				misses = "~" + misses
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", r.Workload, r.Config, misses, frac)
		}
	case "fig8", "fig9":
		b.WriteString("| workload | config | pref hits | delayed hits | useless | useful frac |\n|---|---|---:|---:|---:|---:|\n")
		for _, r := range f.Rows {
			if r.Failed() {
				fmt.Fprintf(&b, "| %s | %s | _failed: %s_ | — | — | — |\n", r.Workload, r.Config, r.Err)
				continue
			}
			total := r.PrefHits + r.DelayedHits + r.Useless
			frac := 0.0
			if total > 0 {
				frac = float64(r.PrefHits+r.DelayedHits) / float64(total)
			}
			fmt.Fprintf(&b, "| %s | %s | %d | %d | %d | %.2f |\n",
				r.Workload, r.Config, r.PrefHits, r.DelayedHits, r.Useless, frac)
		}
	default:
		b.WriteString("| workload | config | cycles | speedup vs " + f.Baseline + " |\n|---|---|---:|---:|\n")
		for _, r := range f.Rows {
			if r.Failed() {
				fmt.Fprintf(&b, "| %s | %s | _failed: %s_ | — |\n", r.Workload, r.Config, r.Err)
				continue
			}
			if r.Estimated {
				fmt.Fprintf(&b, "| %s | %s | ~%d ±%.1f%% | ~%.3f |\n",
					r.Workload, r.Config, r.Cycles, 100*r.CyclesCI, r.Speedup)
				continue
			}
			fmt.Fprintf(&b, "| %s | %s | %d | %.3f |\n", r.Workload, r.Config, r.Cycles, r.Speedup)
		}
	}
	return b.String()
}

// GeoSpeedup returns the geometric-mean speedup of config over the
// figure's baseline across workloads.
func (f *Figure) GeoSpeedup(config string) float64 {
	prod := 1.0
	n := 0
	for _, r := range f.Rows {
		if r.Config == config && r.Speedup > 0 {
			prod *= r.Speedup
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1.0/float64(n))
}

// MeanMissFraction returns the average (across workloads) ratio of the
// config's miss count to the baseline config's.
func (f *Figure) MeanMissFraction(config string) float64 {
	base := map[string]int64{}
	for _, r := range f.Rows {
		if r.Config == f.Baseline {
			base[r.Workload] = r.Misses
		}
	}
	sum, n := 0.0, 0
	for _, r := range f.Rows {
		if r.Config == config && base[r.Workload] > 0 {
			sum += float64(r.Misses) / float64(base[r.Workload])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanUsefulFraction averages useful/(useful+useless) for a config.
func (f *Figure) MeanUsefulFraction(config string) float64 {
	sum, n := 0.0, 0
	for _, r := range f.Rows {
		if r.Config != config {
			continue
		}
		total := r.PrefHits + r.DelayedHits + r.Useless
		if total == 0 {
			continue
		}
		sum += float64(r.PrefHits+r.DelayedHits) / float64(total)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// FanoutStats summarizes the dynamic call-fanout observation of §3.2
// ("80% of the functions have calls to fewer than 8 distinct
// functions") for the DB profile.
type FanoutStats struct {
	CallingFunctions int
	FractionBelow8   float64
	InstrPerCall     float64
}

// CallFanoutStats computes the §3.2 / §5.4 trace statistics from the
// runner's database profile.
func (r *Runner) CallFanoutStats(ctx context.Context) (FanoutStats, error) {
	w := r.DBWorkloads()[0]
	prof, err := r.profileFor(ctx, w)
	if err != nil {
		return FanoutStats{}, err
	}
	return FanoutStats{
		CallingFunctions: len(prof.FanoutDistinct()),
		FractionBelow8:   prof.FanoutFractionBelow(8),
		InstrPerCall:     prof.InstructionsPerCall(),
	}, nil
}

// DBProfile exposes the merged database feedback profile (wisc-prof +
// wisc+tpch), for inspection and tests.
func (r *Runner) DBProfile(ctx context.Context) (*program.Profile, error) {
	return r.profileFor(ctx, r.DBWorkloads()[0])
}

// SummarizeConfigs lists the distinct config labels of a figure in
// first-appearance order.
func (f *Figure) SummarizeConfigs() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range f.Rows {
		if !seen[r.Config] {
			seen[r.Config] = true
			out = append(out, r.Config)
		}
	}
	return out
}

// Workloads lists the distinct workloads of a figure, sorted by first
// appearance.
func (f *Figure) Workloads() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range f.Rows {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			out = append(out, r.Workload)
		}
	}
	return out
}

// RowsFor returns the rows of one workload in config order.
func (f *Figure) RowsFor(workload string) []Row {
	var out []Row
	for _, r := range f.Rows {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

// Markdown renders the attribution table as a GitHub-style table:
// per-function coverage (fraction of would-be misses the prefetcher
// served), accuracy (useful fraction of issues launched on the
// function's behalf) and mean timeliness (issue-to-first-use cycles).
// Like the figures above, every cell is a deterministic simulator
// quantity, so regenerating the table yields identical bytes.
func (t *AttributionTable) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### Per-function prefetch attribution — %s under %s\n\n", t.Workload, t.Config)
	if len(t.Rows) < t.TotalFuncs {
		fmt.Fprintf(&b, "Top %d of %d attributed functions, by prefetch-relevant demand fetches.\n\n",
			len(t.Rows), t.TotalFuncs)
	}
	writeAttrHeader(&b, "function", "", "")
	for i := range t.Rows {
		writeAttrRow(&b, t.Rows[i].Name, &t.Rows[i].AttrCounters, "")
	}
	return b.String()
}

// Markdown renders the per-query attribution table. Trace IDs print as
// 16 lower-case hex digits — the same rendering the slow-query log
// uses, so a row here greps directly against serving artifacts. With a
// joined query log each row ends in its status, wall-clock total (ns)
// and stage latencies, "-" where the log lacks the query. Rows are
// already trace-ID-sorted; regenerating the table yields identical
// bytes.
func (t *QueryAttributionTable) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### Per-query prefetch attribution — %s under %s\n\n", t.Workload, t.Config)
	head, align := "", ""
	if t.Log != nil {
		head, align = " status | wall_ns | stages |", "---|---:|---|"
	}
	writeAttrHeader(&b, "trace id", head, align)
	for i := range t.Rows {
		r := &t.Rows[i]
		writeAttrRow(&b, obs.FormatTraceID(r.Query), &r.AttrCounters, t.logCells(r.Query))
	}
	return b.String()
}

// logCells renders the query-log join columns of one trace ID's row:
// none without a joined log, "-" where the log lacks the query.
func (t *QueryAttributionTable) logCells(id uint64) string {
	if t.Log == nil {
		return ""
	}
	e, ok := t.Log[id]
	if !ok {
		return " - | - | - |"
	}
	var stages []string
	for st := obs.QueryStage(0); st < obs.NumQueryStages; st++ {
		if ns, ok := e.Stages[st.String()]; ok {
			stages = append(stages, fmt.Sprintf("%s=%d", st, ns))
		}
	}
	if len(stages) == 0 {
		stages = []string{"-"}
	}
	return fmt.Sprintf(" %s | %d | %s |", e.Status, e.TotalNs, strings.Join(stages, " "))
}

// writeAttrHeader writes the column header both attribution tables
// share, under a first column named key and followed by any extra
// columns (head, with their alignment cells in align).
func writeAttrHeader(b *strings.Builder, key, head, align string) {
	b.WriteString("| " + key + " | fetches | misses | pref hits | delayed | coverage | issued | useful | accuracy | timeliness (cyc) |" + head + "\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|" + align + "\n")
}

// writeAttrRow writes one attribution row: the counters and derived
// metrics of one function or query, keyed by its name or trace ID and
// followed by the cells in tail.
func writeAttrRow(b *strings.Builder, key string, c *cpu.AttrCounters, tail string) {
	fmt.Fprintf(b, "| %s | %d | %d | %d | %d | %.2f | %d | %d | %.2f | %.1f |%s\n",
		key, c.LineFetches, c.Misses, c.PrefHits, c.DelayedHits, c.Coverage(),
		c.Issued, c.Useful, c.Accuracy(), c.MeanTimeliness(), tail)
}
