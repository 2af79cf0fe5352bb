// Package obs is the simulator's observability layer: metrics, harness
// spans, a structured run log and live introspection, split across two
// strictly separated domains.
//
// The deterministic domain (Registry) holds values derived only from
// simulated state — cycle counts, instruction counts, prefetch
// counters, per-job simulation results. These are byte-identical across
// re-runs, across replay vs re-execution, and across parallel vs
// sequential campaigns, so they may appear in reports and figures.
//
// The wall-clock domain (WallRegistry, SpanRecorder, RunLog) holds host
// facts — phase durations, scheduling order, checkpoint hits, retry
// counts. These vary run to run and are quarantined from report bodies
// the same way cmd/experiments' -timing flag already is: wall values
// are typed units.WallNanos, and the cgplint detrand/cyclesafe passes
// flag wall values crossing into deterministic output (see
// internal/units).
//
// Everything in this package is nil-safe: a nil *Observability (or any
// nil component) turns every hook into a no-op, so instrumented code
// carries no conditionals and disabled observability costs one nil
// check per hook. Hot-path simulation code does not use this package at
// all — per-function attribution lives inside internal/cpu and is
// exported into the deterministic registry after a run finishes.
package obs

import "io"

// Observability bundles the layer's components. Any field may be nil
// to disable that component; the helper methods below (and every
// component method) tolerate a nil receiver.
type Observability struct {
	// Det is the deterministic-domain metric registry.
	Det *Registry
	// Wall is the wall-clock-domain metric registry.
	Wall *WallRegistry
	// Spans records harness phase spans for Chrome trace export.
	Spans *SpanRecorder
	// Log receives structured job lifecycle events as JSONL.
	Log *RunLog
	// Progress tracks live per-job state for the /progress endpoint.
	Progress *Progress
}

// New returns an Observability with every component enabled except the
// run log, which needs a destination (attach one with AttachLog).
func New() *Observability {
	return &Observability{
		Det:      NewRegistry(),
		Wall:     NewWallRegistry(),
		Spans:    NewSpanRecorder(),
		Progress: NewProgress(),
	}
}

// AttachLog directs job lifecycle events to a JSONL run log writing
// to w. It returns o for chaining and is a no-op on a nil receiver.
func (o *Observability) AttachLog(w io.Writer) *Observability {
	if o == nil {
		return nil
	}
	o.Log = NewRunLog(w)
	return o
}

// Span starts a named span in category cat, or returns nil when spans
// are disabled. Always safe: Span(...).End() on a disabled recorder is
// a no-op.
func (o *Observability) Span(name, cat string) *Span {
	if o == nil {
		return nil
	}
	return o.Spans.Start(name, cat)
}

// Job emits one job lifecycle event to the run log and the progress
// tracker. key identifies the job; workload and config label it.
func (o *Observability) Job(state JobState, key, workload, config, detail string) {
	if o == nil {
		return
	}
	o.Log.emit(RunLogEntry{Event: string(state), Workload: workload, Config: config, Key: key, Detail: detail})
	o.Progress.Update(state, key, workload, config)
}
