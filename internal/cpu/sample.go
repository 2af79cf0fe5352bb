package cpu

import (
	"cgp/internal/cache"
	"cgp/internal/isa"
	"cgp/internal/prefetch"
	"cgp/internal/sample"
	"cgp/internal/trace"
	"cgp/internal/units"
)

// Sampled simulation: the CPU implements trace.SampledConsumer, so a
// sampled replay drives it through three tiers.
//
//   - Skipped spans (SkipSpan) deliver no events at all: only the
//     exact instruction count is folded in, so whole-run instruction
//     totals stay exact in every mode.
//   - Functional-warming spans run the op loop without timing: caches,
//     the prefetcher's call-graph history, branch predictor and RAS are
//     updated — the state whose history depth decides how accurate the
//     next window is — but nothing touches the cycle clock, the fetch
//     carry, the inflight ring or the bus model. The front end decodes
//     them as it does any span but accrues no cycles, and RunOps sends
//     fetch ops to ffFetchLine, data misses straight to L2 (l2Fill) and
//     the prefetcher's requests to ffIssue.
//   - Detailed spans run the ordinary op loop; measurement windows
//     additionally snapshot cycle/instruction/miss deltas into
//     sample.Windows for the estimator.
//
// At every transition out of detailed mode the inflight prefetch ring
// is flushed into L1I: those transfers would have completed during the
// skipped simulated time, and leaving them queued would leak stale
// ready-times into the next window.
//
// In sampled runs, Stats.Cycles covers only the detailed spans;
// Stats.Sample carries the whole-run estimates (typed units.EstCycles,
// with relative 95% CIs). Stats.Instructions remains the exact
// whole-run count. All other raw counters (misses, branches, cache and
// prefetcher stats) cover the decoded events — functional plus
// detailed — and are diagnostics, not whole-run measurements.

// sampler is the per-CPU sampling state, nil unless EnableSampling.
type sampler struct {
	// ffIssueFn is the functional-mode prefetch sink, bound once like
	// issueFn to avoid a closure allocation per event.
	ffIssueFn prefetch.Issue

	mode      trace.SpanKind
	measuring bool

	// Window-open snapshots.
	openCycles  units.Cycles
	openInstrs  units.Instrs
	openIMisses int64

	windows []sample.Window

	skippedEvents  int64
	skippedInstrs  units.Instrs
	ffEvents       int64
	warmEvents     int64
	measuredEvents int64
}

var _ trace.SampledConsumer = (*CPU)(nil)

// EnableSampling prepares the CPU to be driven by a sampled replay
// (trace.ReplaySampled). Call it before consuming events. Without a
// sampled driver the CPU behaves exactly as before — events arriving
// outside any span run in full detail — so enabling it never corrupts
// a full replay.
func (c *CPU) EnableSampling() {
	if c.smp == nil {
		c.smp = &sampler{mode: trace.SpanDetailWarm}
		c.smp.ffIssueFn = c.ffIssue
		if !c.shared {
			c.fe.EnableSampling()
		}
	}
}

// SamplingEnabled reports whether EnableSampling was called.
func (c *CPU) SamplingEnabled() bool { return c.smp != nil }

// BeginSpan implements trace.SampledConsumer: subsequent events belong
// to a span of the given kind.
func (c *CPU) BeginSpan(kind trace.SpanKind) {
	s := c.smp
	if s == nil {
		return
	}
	c.closeWindow()
	c.forgetPresent()
	if kind == trace.SpanFunctionalWarm && s.mode != trace.SpanFunctionalWarm {
		c.flushInflight()
	}
	if kind == trace.SpanMeasure {
		s.measuring = true
		s.openCycles = c.cycle
		s.openInstrs = c.fe.instructions
		s.openIMisses = c.stats.ICacheMisses
	}
	s.mode = kind
	if !c.shared {
		c.fe.BeginSpan(kind)
	}
}

// SkipSpan implements trace.SampledConsumer: events skipped events went
// by undecoded, carrying instrs instructions. The exact instruction
// count keeps Stats.Instructions whole-run-accurate, which is what the
// estimator scales window rates by.
func (c *CPU) SkipSpan(events int64, instrs units.Instrs) {
	// Close any open window before folding in the skipped
	// instructions, or the window's instruction delta would swallow
	// the whole skipped span and crater its rate.
	c.closeWindow()
	if !c.shared {
		c.fe.SkipSpan(instrs)
	}
	s := c.smp
	if s == nil {
		return
	}
	c.flushInflight()
	c.forgetPresent()
	s.mode = trace.SpanSkip
	s.skippedEvents += events
	s.skippedInstrs += instrs
}

// closeWindow seals an open measurement window into the estimator's
// window list.
func (c *CPU) closeWindow() {
	s := c.smp
	if s == nil || !s.measuring {
		return
	}
	s.measuring = false
	s.windows = append(s.windows, sample.Window{
		Cycles: c.cycle - s.openCycles,
		Instrs: c.fe.instructions - s.openInstrs,
		Misses: c.stats.ICacheMisses - s.openIMisses,
	})
}

// flushInflight retires every queued prefetch into L1I regardless of
// ready time: the simulated time about to be skipped dwarfs any L2 or
// memory latency, so all in-flight transfers complete before the next
// detailed span. Entries already consumed as delayed hits just drop.
func (c *CPU) flushInflight() {
	for !c.fifo.empty() {
		if inf := c.fifo.front(); !inf.done {
			c.fillPrefetched(inf)
		}
		c.fifo.popFront()
	}
}

// ---- functional fast-forward ----

// ffFetchLine is fetchLine without timing: it keeps L1I/L2 contents and
// the miss counters moving, charging no stalls and using no ring. The
// per-fetch prefetcher hook (next-N-line issue in every prefetcher
// here) is deliberately not run: it costs several cache probes per
// fetched line, and its short reach is re-established within the first
// handful of detailed warm-up events. Its one piece of state, the last
// line it triggered on, does not move either: the front end marks new
// lines on timed fetch ops only. The call-graph hooks (OnCall/OnReturn)
// do run, since the history they keep is what warming is for.
func (c *CPU) ffFetchLine(line isa.Addr) {
	cl := cache.Line(isa.Line(line))
	c.stats.ILineAccesses++
	if _, hit := c.l1i.Access(cl); !hit {
		c.stats.ICacheMisses++
		c.l2Fill(cl)
		c.insertL1I(line, lineMeta{})
	}
}

// ffIssue is the functional-mode prefetch sink: each line of the run
// not yet in L1I lands in the caches immediately (the transfer would
// complete within the warmed stretch) with no ring entry and no
// effectiveness accounting — the fill is marked already-used so it can
// neither claim a PrefHit nor be booked Useless, keeping the Figure 8/9
// counters a detailed-span measurement. Its fills bypass insertL1I and
// so the squash filter, which the next span boundary clears.
func (c *CPU) ffIssue(req prefetch.Request) {
	cl := cache.Line(isa.Line(req.Addr))
	for end := cl + cache.Line(req.Lines); cl < end; cl++ {
		if c.l1i.Contains(cl) {
			continue
		}
		c.l2Fill(cl)
		if !c.cfg.PrefetchIntoL2Only {
			c.l1i.Insert(cl, lineMeta{prefetched: true, used: true})
		}
	}
}

// finish derives the whole-run estimates from the closed windows.
// total is the exact whole-run instruction count (counted in every
// tier). cycles is the detailed-span cycle count, used verbatim when
// the replay never opened a window — i.e. the stream was simulated in
// full detail, so the "estimate" is the measurement itself.
func (s *sampler) finish(total units.Instrs, cycles units.Cycles) *SampleStats {
	ss := &SampleStats{
		Windows:             len(s.windows),
		SkippedEvents:       s.skippedEvents,
		SkippedInstrs:       s.skippedInstrs,
		FastForwardedEvents: s.ffEvents,
		WarmupEvents:        s.warmEvents,
		MeasuredEvents:      s.measuredEvents,
	}
	if len(s.windows) == 0 {
		//cgplint:ignore cyclesafe zero-window fallback: the whole stream ran in full detail, so the estimate is the measurement
		ss.EstCycles = units.EstCycles(int64(cycles))
		ss.Degenerate = true
		return ss
	}
	cyc := sample.EstimateRate(s.windows, func(w sample.Window) float64 { return float64(w.Cycles) })
	miss := sample.EstimateRate(s.windows, func(w sample.Window) float64 { return float64(w.Misses) })
	ss.EstCycles = units.EstCycles(cyc.Scale(total))
	ss.CycleRelCI = cyc.RelCI
	ss.EstIMisses = miss.Scale(total)
	ss.MissRelCI = miss.RelCI
	ss.Degenerate = cyc.Degenerate
	return ss
}
