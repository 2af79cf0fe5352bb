package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the benchmark must
// agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tiny shrinks a workload so the whole suite runs in seconds; the
// digest pins hold only at the real sizes. The serving databases are
// already small, so only their statement pools shrink.
func tiny(w benchWorkload) benchWorkload {
	if w.sim != nil {
		s := *w.sim
		s.wiscN /= 10
		s.pin = ""
		w.sim = &s
	}
	if w.serve != nil {
		s := *w.serve
		s.perKind = 10
		w.serve = &s
	}
	return w
}

// lastResult parses the JSON object report prints last.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return r
}

// checkEmitted asserts the result carries exactly the named metrics,
// each once with its unit and a finite value; end-to-end values must
// also be positive.
func checkEmitted(t *testing.T, workload string, r result, want []struct{ Name, Unit string }, positive bool) {
	t.Helper()
	if len(r.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", workload, len(r.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", workload, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", workload, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s = %v", workload, m.Name, got.Value)
		case positive && got.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", workload, m.Name, got.Value)
		}
	}
}

// TestWorkloadsEmitNamedMetrics runs every workload, traced, at tiny
// sizes and checks both reports against BENCHMARK.json. The traced run
// also measures the end-to-end metrics, and its checks include the
// layer-sum checks, so a passing run means the layers sum to the spans
// that contain them.
func TestWorkloadsEmitNamedMetrics(t *testing.T) {
	b := loadBenchmarkJSON(t)
	ws := workloads()
	if len(ws) != len(b.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json names %d", len(ws), len(b.Workloads))
	}
	for i, w := range ws {
		if w.name != b.Workloads[i].Name {
			t.Errorf("workload %d is %s, BENCHMARK.json says %s", i, w.name, b.Workloads[i].Name)
		}
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{seed: 7, seconds: time.Second, trace: true, out: t.TempDir()}
			o, err := runWorkload(context.Background(), tiny(w), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range o.checks {
				if !c.ok {
					t.Errorf("check %s failed: %s", c.name, c.detail)
				}
			}
			if o.failed != 0 {
				t.Errorf("%d of %d operations failed", o.failed, o.attempted)
			}
			for _, traced := range []bool{false, true} {
				var out bytes.Buffer
				if err := report(&out, w.name, o, traced); err != nil {
					t.Fatal(err)
				}
				r := lastResult(t, out.String())
				if traced {
					checkEmitted(t, w.name, r, b.PerLayer, false)
				} else {
					checkEmitted(t, w.name, r, b.EndToEnd, true)
				}
				if !r.Correct || r.Attempted < 1 {
					t.Errorf("%s: result correct=%t attempted=%d", w.name, r.Correct, r.Attempted)
				}
			}
		})
	}
}

// TestFlags checks that bad invocations fail without a result.
func TestFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "figures", "--seconds", "0"},
		{"--workload", "figures", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q", args, code, out.String())
		}
	}
}
