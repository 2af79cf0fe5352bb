package main

import (
	"strings"
	"testing"

	"cgp"
)

// summaryFigures builds a synthetic fig4 and fig9; estimated lists the
// configs whose rows are marked Estimated.
func summaryFigures(estimated ...string) []*cgp.Figure {
	est := func(config string) bool {
		for _, c := range estimated {
			if c == config {
				return true
			}
		}
		return false
	}
	fig4 := &cgp.Figure{ID: "fig4", Baseline: "O5"}
	for _, r := range []struct {
		config  string
		speedup float64
	}{{"O5", 1}, {"O5+OM", 1.12}, {"O5+CGP_4", 1.41}, {"O5+OM+CGP_4", 1.47}} {
		fig4.Rows = append(fig4.Rows, cgp.Row{Workload: "wisc-prof", Config: r.config,
			Speedup: r.speedup, Estimated: est(r.config)})
	}
	fig9 := &cgp.Figure{ID: "fig9", Rows: []cgp.Row{
		{Workload: "wisc-prof", Config: "CGP_4/NL-portion", PrefHits: 40, Useless: 60,
			Estimated: est("CGP_4/NL-portion")},
		{Workload: "wisc-prof", Config: "CGP_4/CGHC-portion", PrefHits: 66, Useless: 34,
			Estimated: est("CGP_4/CGHC-portion")},
	}}
	return []*cgp.Figure{fig4, fig9}
}

// claimLine returns the summary table line of the claim that starts
// with prefix.
func claimLine(t *testing.T, summary, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(summary, "\n") {
		if strings.HasPrefix(line, "| "+prefix) {
			return line
		}
	}
	t.Fatalf("no claim %q in summary:\n%s", prefix, summary)
	return ""
}

// TestSummaryMarksSampledClaims: a headline claim read from a sampled
// (Estimated) row prints its value as an estimate and is inconclusive,
// whatever its value; claims from measured rows keep their verdicts.
func TestSummaryMarksSampledClaims(t *testing.T) {
	summary := func(estimated ...string) string {
		var b strings.Builder
		writeSummary(&b, summaryFigures(estimated...), cgp.FanoutStats{}, false)
		return b.String()
	}

	full := summary()
	if strings.Contains(full, "inconclusive") {
		t.Errorf("full-detail summary marks an estimate:\n%s", full)
	}
	for prefix, want := range map[string]string{
		"OM over O5 (§5.1)":                "| OM over O5 (§5.1) | 1.11x | 1.12x | reproduced |",
		"CGP_4 CGHC-portion useful (§5.6)": "| CGP_4 CGHC-portion useful (§5.6) | 77% | 66% | reproduced |",
	} {
		if got := claimLine(t, full, prefix); got != want {
			t.Errorf("full detail:\n got %s\nwant %s", got, want)
		}
	}

	// Figure 9 sampled: both portion claims read an estimate; fig4's
	// claims do not.
	fig9 := summary("CGP_4/NL-portion", "CGP_4/CGHC-portion")
	if got, want := claimLine(t, fig9, "CGP_4 CGHC-portion useful"),
		"| CGP_4 CGHC-portion useful (§5.6) | 77% | ~66% | inconclusive (sampled estimate) |"; got != want {
		t.Errorf("sampled fig9:\n got %s\nwant %s", got, want)
	}
	if got := claimLine(t, fig9, "CGP_4 NL-portion useful"); !strings.HasSuffix(got, "| ~40% | inconclusive (sampled estimate) |") {
		t.Errorf("sampled fig9 NL portion: %s", got)
	}
	if got := claimLine(t, fig9, "OM over O5"); strings.Contains(got, "~") {
		t.Errorf("measured fig4 claim marked as an estimate: %s", got)
	}

	// A sampled baseline taints every speedup built on it.
	base := summary("O5")
	for _, prefix := range []string{"OM over O5", "CGP_4 alone over O5", "CGP_4+OM over O5", "CGP_4+OM over OM"} {
		if got := claimLine(t, base, prefix); !strings.HasSuffix(got, "| inconclusive (sampled estimate) |") {
			t.Errorf("sampled baseline, claim %q: %s", prefix, got)
		}
	}

	// One sampled config taints only the claims that read it.
	om := summary("O5+OM")
	if got := claimLine(t, om, "CGP_4 alone over O5"); strings.Contains(got, "inconclusive") {
		t.Errorf("claim not reading O5+OM marked inconclusive: %s", got)
	}
	if got := claimLine(t, om, "CGP_4+OM over OM"); !strings.Contains(got, "| ~1.31x | inconclusive") {
		t.Errorf("ratio over a sampled O5+OM: %s", got)
	}
}
