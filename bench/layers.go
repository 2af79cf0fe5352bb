package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"time"

	"cgp"
	"cgp/internal/core"
	"cgp/internal/cpu"
	"cgp/internal/isa"
	"cgp/internal/obs"
	"cgp/internal/prefetch"
	"cgp/internal/program"
	"cgp/internal/sample"
	"cgp/internal/trace"
	"cgp/internal/units"
	"cgp/internal/workload"
)

// benchSpanCat is the Chrome-trace category of the benchmark's own
// spans, which share a recorder with the runner's harness spans.
const benchSpanCat = "bench"

// layerSumTolerance is how far the layer times may sum from the span
// that contains them.
const layerSumTolerance = 0.05

// fig4Cells are Figure 4's six configurations, built here without the
// runner: the config label, whether the layout is OM, and the CGP
// degree (0 = no prefetcher).
var fig4Cells = []struct {
	label  string
	om     bool
	degree int
}{
	{"O5", false, 0},
	{"O5+OM", true, 0},
	{"O5+CGP_2", false, 2},
	{"O5+CGP_4", false, 4},
	{"O5+OM+CGP_2", true, 2},
	{"O5+OM+CGP_4", true, 4},
}

// timedCPU times every batch a replay hands the CPU.
type timedCPU struct {
	*cpu.CPU
	busy time.Duration
}

// EventBatch implements trace.BatchConsumer.
func (t *timedCPU) EventBatch(evs []trace.Event) {
	s := now()
	t.CPU.EventBatch(evs)
	t.busy += since(s)
}

// prefetchSampleMask times one prefetcher hook call in 64: timing every
// call would cost more than many calls do.
const prefetchSampleMask = 63

// timedPrefetcher counts every hook call and times one in 64. The time
// includes the CPU's handling of the requests the hook issues.
type timedPrefetcher struct {
	prefetch.Prefetcher
	calls, timed int64
	busy         time.Duration
}

// OnFetch implements prefetch.Prefetcher.
func (p *timedPrefetcher) OnFetch(line isa.Addr, issue prefetch.Issue) {
	p.calls++
	if p.calls&prefetchSampleMask != 0 {
		p.Prefetcher.OnFetch(line, issue)
		return
	}
	s := now()
	p.Prefetcher.OnFetch(line, issue)
	p.busy += since(s)
	p.timed++
}

// OnCall implements prefetch.Prefetcher.
func (p *timedPrefetcher) OnCall(target, callerStart isa.Addr, issue prefetch.Issue) {
	p.calls++
	if p.calls&prefetchSampleMask != 0 {
		p.Prefetcher.OnCall(target, callerStart, issue)
		return
	}
	s := now()
	p.Prefetcher.OnCall(target, callerStart, issue)
	p.busy += since(s)
	p.timed++
}

// OnReturn implements prefetch.Prefetcher.
func (p *timedPrefetcher) OnReturn(predictedCallerStart, returningStart isa.Addr, issue prefetch.Issue) {
	p.calls++
	if p.calls&prefetchSampleMask != 0 {
		p.Prefetcher.OnReturn(predictedCallerStart, returningStart, issue)
		return
	}
	s := now()
	p.Prefetcher.OnReturn(predictedCallerStart, returningStart, issue)
	p.busy += since(s)
	p.timed++
}

// estimate scales the timed calls to all calls, less the cost of the
// clock reads themselves.
func (p *timedPrefetcher) estimate(clock time.Duration) time.Duration {
	if p.timed == 0 {
		return 0
	}
	per := max(0, float64(p.busy)/float64(p.timed)-float64(clock))
	return time.Duration(per * float64(p.calls))
}

// clockCost is the median time a pair of clock reads adds to a timed
// interval.
func clockCost() time.Duration {
	ds := make([]time.Duration, 4096)
	for i := range ds {
		s := now()
		ds[i] = since(s)
	}
	return median(ds)
}

// layerCell is one Figure 4 cell driven directly.
type layerCell struct {
	label string
	c     *timedCPU
	gp    *core.CGP
	pf    *timedPrefetcher // nil without a prefetcher
	st    *cpu.Stats       // set once the replay finished
}

// layerTotals accumulates the simulation layers over every recording
// and cell driveSimLayers runs.
type layerTotals struct {
	events, bytes                    float64
	discard, record, decode          time.Duration
	cpuEvents, pfEvents              float64 // events the CPUs (with a prefetcher) consumed
	cpuBusy, pfTime                  time.Duration
	pfCalls                          float64
	issued, useful, squashed         float64
	cghcHits, cghcLookups            float64
	imiss, l2, instrs                float64
	branches, mispredicts, rets, ras float64
	spanWall, spanParts              time.Duration
	cells, matched                   int
}

// driveSimLayers drives Figure 4 through every simulation layer with
// the benchmark's own code: each database workload runs into a discard
// consumer (workload and engine cost) and into a trace recorder
// (encoding cost), the recording is decoded once into nothing (decode
// cost) and then replayed into the figure's CPUs with timed batches and
// prefetcher hooks. The resulting stats must equal the runner's Figure 4
// cells, and the replay's parts must sum to its span.
func driveSimLayers(ctx context.Context, spec simSpec, dbo cgp.DBOptions, prof *program.Profile, fig4 *cgp.Figure, spans *obs.SpanRecorder, layers map[string]float64, o *outcome) error {
	clock := clockCost()
	var t layerTotals
	for _, w := range workload.DBWorkloads(dbo) {
		for _, om := range []bool{false, true} {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := driveRecording(spec, w, om, prof, fig4, clock, spans, &t); err != nil {
				return err
			}
		}
	}
	o.check("direct fig4 replay equals runner", t.matched == t.cells, "%d of %d cells equal", t.matched, t.cells)
	off := float64(t.spanParts-t.spanWall) / float64(t.spanWall)
	o.check("simulation layers sum to replay spans", math.Abs(off) <= layerSumTolerance,
		"decode + cpu + prefetch = %v against %v of replay spans (%+.2f%%)", t.spanParts, t.spanWall, 100*off)

	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) }
	layers["workload.ns_per_event"] = ns(t.discard) / t.events
	layers["trace.encode_ns_per_event"] = ns(t.record-t.discard) / t.events
	layers["trace.bytes_per_event"] = t.bytes / t.events
	layers["trace.decode_ns_per_event"] = ns(t.decode) / t.events
	layers["cpu.ns_per_event"] = ns(t.cpuBusy-t.pfTime) / t.cpuEvents
	layers["prefetch.ns_per_call"] = ns(t.pfTime) / t.pfCalls
	layers["prefetch.calls_per_kevent"] = 1000 * t.pfCalls / t.pfEvents
	layers["prefetch.useful_frac"] = t.useful / t.issued
	layers["prefetch.squash_frac"] = t.squashed / (t.issued + t.squashed)
	layers["core.cghc_hit_rate"] = t.cghcHits / t.cghcLookups
	layers["cache.l1i_mpki"] = 1000 * t.imiss / t.instrs
	layers["cache.l2_per_kinstr"] = 1000 * t.l2 / t.instrs
	layers["branch.mispredict_rate"] = t.mispredicts / t.branches
	layers["branch.ras_mispredict_rate"] = t.ras / t.rets
	return nil
}

// driveRecording runs one (workload, layout) pair through the layers
// and replays it into the Figure 4 cells of that layout.
func driveRecording(spec simSpec, w *workload.Workload, om bool, prof *program.Profile, fig4 *cgp.Figure, clock time.Duration, spans *obs.SpanRecorder, t *layerTotals) error {
	layout := "O5"
	img := program.LayoutO5(w.NewRegistry())
	if om {
		layout = "O5+OM"
		img = program.LayoutOM(w.NewRegistry(), prof)
	}
	span := func(name string) *obs.Span {
		return spans.Start(name, benchSpanCat).Arg("workload", w.Name).Arg("layout", layout)
	}

	sp := span("workload.run")
	s := now()
	err := w.Run(img, trace.Discard)
	t.discard += since(s)
	sp.End()
	if err != nil {
		return fmt.Errorf("%s/%s into discard: %w", w.Name, layout, err)
	}

	sp = span("trace.record")
	s = now()
	recorder := trace.NewRecorder()
	err = w.Run(img, recorder)
	var rec *trace.Recording
	if err == nil {
		rec, err = recorder.Finish()
	}
	t.record += since(s)
	sp.End()
	if err != nil {
		return fmt.Errorf("%s/%s into recorder: %w", w.Name, layout, err)
	}
	events := float64(rec.Events())
	t.events += events
	t.bytes += float64(rec.Bytes())

	sp = span("trace.decode")
	s = now()
	err = rec.ReplayBatch(func([]trace.Event) error { return nil })
	decode := since(s)
	t.decode += decode
	sp.End()
	if err != nil {
		return fmt.Errorf("%s/%s decode: %w", w.Name, layout, err)
	}

	var cells []*layerCell
	for _, fc := range fig4Cells {
		if fc.om != om {
			continue
		}
		cell := &layerCell{label: fc.label}
		var pf prefetch.Prefetcher = prefetch.None{}
		if fc.degree > 0 {
			cell.gp = core.New(cgpConfig(fc.degree))
			cell.pf = &timedPrefetcher{Prefetcher: cell.gp}
			pf = cell.pf
		}
		cell.c = &timedCPU{CPU: cpu.New(cpu.DefaultConfig(), pf)}
		cells = append(cells, cell)
	}

	if spec.sampled {
		// A sampled replay seeks through the recording's skip index and
		// decodes only the plan's spans, so its decode time is measured
		// on the plan itself, once the first replay has built the index.
		// That pass is short and counts once per cell, so it is the
		// median of three. A sampled cell replays alone: its skip spans
		// differ from its batch mates'.
		plan := sample.Default().WithDefaults().Plan(rec.Events())
		nopBegin := func(trace.SpanKind) error { return nil }
		nopBatch := func([]trace.Event) error { return nil }
		nopSkip := func(int64, units.Instrs) error { return nil }
		err := rec.ReplaySampled(plan, nopBegin, nopBatch, nopSkip)
		var passes []time.Duration
		for i := 0; i < 3 && err == nil; i++ {
			s = now()
			err = rec.ReplaySampled(plan, nopBegin, nopBatch, nopSkip)
			passes = append(passes, since(s))
		}
		if err != nil {
			return fmt.Errorf("%s/%s sampled decode: %w", w.Name, layout, err)
		}
		decode := median(passes)
		var wall, busy time.Duration
		for _, cell := range cells {
			cell.c.EnableSampling()
			sp = span("trace.replay_sampled").Arg("config", cell.label)
			s = now()
			err := rec.ReplaySampled(plan,
				func(k trace.SpanKind) error { cell.c.BeginSpan(k); return nil },
				func(evs []trace.Event) error { cell.c.EventBatch(evs); return nil },
				func(n int64, in units.Instrs) error { cell.c.SkipSpan(n, in); return nil })
			wall += since(s)
			sp.End()
			if err != nil {
				return fmt.Errorf("%s/%s sampled replay: %w", w.Name, layout, err)
			}
			busy += cell.c.busy
			cell.st = cell.c.CPU.Finish()
		}
		t.noteSum(wall, time.Duration(len(cells))*decode, busy)
	} else {
		sp = span("trace.replay").Arg("cells", fmt.Sprint(len(cells)))
		s = now()
		err := rec.ReplayBatch(func(evs []trace.Event) error {
			for _, cell := range cells {
				cell.c.EventBatch(evs)
			}
			return nil
		})
		wall := since(s)
		sp.End()
		if err != nil {
			return fmt.Errorf("%s/%s replay: %w", w.Name, layout, err)
		}
		var busy time.Duration
		for _, cell := range cells {
			busy += cell.c.busy
			cell.st = cell.c.CPU.Finish()
		}
		t.noteSum(wall, decode, busy)
	}

	for _, cell := range cells {
		t.addCell(w.Name, cell, events, clock, fig4)
	}
	return nil
}

// noteSum adds one recording's replay spans, and the parts that make
// them up, to the layer-sum check: the decode time the standalone decode
// pass measured, plus the CPUs' batch times (which include their
// prefetchers).
func (t *layerTotals) noteSum(wall, decode, busy time.Duration) {
	t.spanWall += wall
	t.spanParts += decode + busy
}

// addCell folds one finished cell into the totals and compares it with
// the runner's Figure 4 cell.
func (t *layerTotals) addCell(workloadName string, cell *layerCell, events float64, clock time.Duration, fig4 *cgp.Figure) {
	st := cell.st
	t.cells++
	if row := findRow(fig4, workloadName, cell.label); row != nil && row.Result != nil {
		same := reflect.DeepEqual(st, row.Result.CPU)
		if cell.gp != nil {
			same = same && row.Result.CGPStats != nil && cell.gp.Stats() == *row.Result.CGPStats
		}
		if same {
			t.matched++
		}
	}

	consumed := events
	// Counters of a sampled run cover only the decoded spans, so rates
	// take the decoded spans' instructions as their base.
	instrs := float64(st.Instructions)
	if sm := st.Sample; sm != nil {
		consumed -= float64(sm.SkippedEvents)
		instrs -= float64(sm.SkippedInstrs)
	}
	t.cpuEvents += consumed
	t.cpuBusy += cell.c.busy
	t.imiss += float64(st.ICacheMisses)
	t.l2 += float64(st.L2Accesses)
	t.instrs += instrs
	t.branches += float64(st.Branches)
	t.mispredicts += float64(st.BranchMispredicts)
	t.rets += float64(st.Returns)
	t.ras += float64(st.RASMispredicts)
	if cell.pf == nil {
		return
	}
	t.pfEvents += consumed
	t.pfCalls += float64(cell.pf.calls)
	t.pfTime += cell.pf.estimate(clock)
	tp := st.TotalPrefetch()
	t.issued += float64(tp.Issued)
	t.useful += float64(tp.Useful())
	t.squashed += float64(tp.Squashed)
	h := cell.gp.Stats().History
	t.cghcHits += float64(h.PrefetchHits)
	t.cghcLookups += float64(h.PrefetchHits + h.PrefetchMisses)
}

// median returns the middle value of vs (the mean of the two middle
// values for an even count).
func median[T time.Duration | float64](vs []T) T {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
