package trace

import (
	"math"
	"sort"

	"cgp/internal/units"
)

// Sampled replay: walk a recording according to a span plan, decoding
// only the stretches a sampled simulation actually needs. Three tiers:
//
//   - SpanSkip stretches are not decoded at all. A skip index over
//     the sealed recording (one decoder checkpoint every skipIndexEvery
//     events, with cumulative event/instruction counts), built as the
//     stream is recorded or loaded, lets the replayer jump near the end
//     of a skip and decode only the sub-checkpoint remainder. This tier
//     is what makes ≥10x speedups possible: decoding alone costs a
//     substantial fraction of full simulation, so a fast-forward that
//     decodes everything cannot get far past ~5x.
//   - SpanFunctionalWarm / SpanDetailWarm stretches are decoded and
//     delivered; the consumer warms architectural state (functionally
//     or in full detail) without measuring.
//   - SpanMeasure stretches are decoded, delivered, and measured.
//
// The plan is pure data (built by internal/sample from the recording's
// event count and the sampling config), so the same plan replays
// byte-identically regardless of worker count or resume path.

// SpanKind classifies a stretch of a sampled replay.
type SpanKind uint8

const (
	// SpanSkip is fast-forwarded without decoding; the consumer is told
	// only how many events and instructions went by.
	SpanSkip SpanKind = iota
	// SpanFunctionalWarm is decoded and delivered for functional
	// warming: architectural state updates without timing.
	SpanFunctionalWarm
	// SpanDetailWarm is decoded and delivered for detailed warm-up:
	// full timing simulation, but excluded from measurement.
	SpanDetailWarm
	// SpanMeasure is decoded, delivered and measured: the consumer
	// samples its counters over the span.
	SpanMeasure
)

// String returns a short mnemonic for k.
func (k SpanKind) String() string {
	switch k {
	case SpanSkip:
		return "skip"
	case SpanFunctionalWarm:
		return "fwarm"
	case SpanDetailWarm:
		return "warm"
	case SpanMeasure:
		return "measure"
	}
	return "?"
}

// Span is one stretch of a sampled replay plan: Events consecutive
// events handled as Kind.
type Span struct {
	Kind   SpanKind
	Events int64
}

// SampledConsumer is a Consumer that can follow a sampled replay:
// BeginSpan announces the kind of every decoded span before its events
// arrive, and SkipSpan replaces the events of a skipped span with their
// aggregate counts. The CPU model implements it.
type SampledConsumer interface {
	Consumer
	BeginSpan(kind SpanKind)
	SkipSpan(events int64, instrs units.Instrs)
}

// skipIndexEvery is the event spacing of skip-index checkpoints. At
// ~5.5 bytes/event a checkpoint every 4096 events indexes a 1 GiB trace
// in ~1.9 MB, and bounds the decoded remainder of any skip to under
// 4096 events.
const skipIndexEvery = 4096

// skipPoint is one skip-index checkpoint: the decoder state (stream
// position and delta bases) immediately after cumulative event number
// `events`, along with the cumulative instruction count up to that
// point.
type skipPoint struct {
	pos    int64
	bases  bases
	events int64
	instrs int64
}

// scan is Load's one decode pass: it counts the stream's Stats and
// takes a skip-index checkpoint every skipIndexEvery events, exactly
// the checkpoints a Recorder takes as it encodes.
func (r *Recording) scan() (Stats, []skipPoint, error) {
	var st Stats
	var idx []skipPoint
	d, err := r.decoder()
	if err != nil {
		return st, nil, err
	}
	// skipIndexEvery is a multiple of the batch size, so every
	// checkpoint falls on a batch boundary.
	buf := make([]Event, replayBatch)
	for {
		n, err := d.fill(buf)
		if err != nil {
			return st, nil, err
		}
		st.EventBatch(buf[:n])
		if n < len(buf) {
			return st, idx, nil
		}
		if st.Events%skipIndexEvery == 0 {
			idx = append(idx, skipPoint{pos: d.pos(), bases: d.bases,
				events: st.Events, instrs: int64(st.Instructions)})
		}
	}
}

// countInstrs sums the instructions a batch of events carries.
func countInstrs(evs []Event) int64 {
	var n int64
	for i := range evs {
		n += int64(evs[i].Instructions())
	}
	return n
}

// wholeStream is the full-detail plan: one measured span that only the
// end of the stream ends, whatever count the recording's Stats hold.
var wholeStream = []Span{{Kind: SpanMeasure, Events: math.MaxInt64}}

// ReplaySampled is the one walk every replay takes: it follows spans,
// calling begin at the start of every decoded span, fn with each
// decoded batch, and skip once per skipped span with its aggregate
// event and instruction counts. An empty plan is the whole-stream plan
// (a disabled sample.Config plans nil), which ReplayBatch uses. Spans
// must be consecutive from the start of the stream; the replay stops at
// the end of the plan or of the stream, whichever comes first. Batches
// are full replayBatch slices except at a span's end or the stream's.
// begin and skip may be nil when the plan has no use for them. Any
// non-nil error from a callback aborts the replay and is returned
// as-is. The chunk checksums are re-verified before decoding.
//
//cgplint:hotpath
func (r *Recording) ReplaySampled(spans []Span,
	begin func(SpanKind) error,
	fn func(evs []Event) error,
	skip func(events int64, instrs units.Instrs) error) error {
	if err := r.Verify(); err != nil {
		return err
	}
	d, err := r.decoder()
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		spans = wholeStream
	}
	// The running instruction count only feeds a later skip's report.
	lastSkip := -1
	for i, sp := range spans {
		if sp.Kind == SpanSkip && sp.Events > 0 {
			lastSkip = i
		}
	}
	buf := make([]Event, replayBatch) //cgplint:ignore allocfree one reusable batch buffer per replay call, amortized across the whole stream
	var consumed, instrs int64
	for si, sp := range spans {
		if sp.Events <= 0 {
			continue
		}
		if sp.Kind == SpanSkip {
			idx := r.idx
			target := consumed + sp.Events
			startEvents, startInstrs := consumed, instrs
			// Jump to the last checkpoint at or before the target,
			// provided it is ahead of the current position.
			i := sort.Search(len(idx), func(i int) bool { return idx[i].events > target }) - 1 //cgplint:ignore allocfree one index search per skipped span, not per event
			if i >= 0 && idx[i].events > consumed {
				p := idx[i]
				d.seek(p)
				consumed, instrs = p.events, p.instrs
			}
			// Decode the sub-checkpoint remainder, counting only
			// instructions.
			for consumed < target {
				want := int64(len(buf))
				if rest := target - consumed; rest < want {
					want = rest
				}
				n, err := d.fill(buf[:want])
				if err != nil {
					return err
				}
				consumed += int64(n)
				instrs += countInstrs(buf[:n])
				if int64(n) < want {
					break // stream shorter than the plan: report what was skipped
				}
			}
			if err := skip(consumed-startEvents, units.Instrs(instrs-startInstrs)); err != nil {
				return err
			}
			if consumed < target {
				return nil
			}
			continue
		}
		if begin != nil {
			if err := begin(sp.Kind); err != nil {
				return err
			}
		}
		count := si < lastSkip
		for remaining := sp.Events; remaining > 0; {
			want := int64(len(buf))
			if remaining < want {
				want = remaining
			}
			n, err := d.fill(buf[:want])
			if err != nil {
				return err
			}
			if n == 0 {
				return nil // the stream ends the plan
			}
			if count {
				instrs += countInstrs(buf[:n])
			}
			if err := fn(buf[:n]); err != nil {
				return err
			}
			if int64(n) < want {
				return nil
			}
			remaining -= int64(n)
			consumed += int64(n)
		}
	}
	return nil
}

// ReplaySampledInto is the consumer-interface form of ReplaySampled.
func (r *Recording) ReplaySampledInto(spans []Span, c SampledConsumer) error {
	return r.ReplaySampled(spans,
		func(k SpanKind) error { c.BeginSpan(k); return nil },
		func(evs []Event) error { c.EventBatch(evs); return nil },
		func(events int64, instrs units.Instrs) error { c.SkipSpan(events, instrs); return nil })
}
