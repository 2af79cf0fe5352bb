package trace

import (
	"fmt"

	"cgp/internal/program"
)

// Probe-level recordings (live capture).
//
// A serving database process cannot be re-executed to regenerate its
// trace: its inputs are whatever clients happened to send. The live
// capture path therefore records the instrumentation seam itself —
// the probe Enter/Exit/Work/Data call sequence, tagged with session
// switches — instead of a synthesized instruction stream. That keeps
// the recording layout-independent: ReplayProbe drives a Tracer over
// any program.Image, so one captured session replays under O5, OM, or
// any future layout, exactly like the synthetic workloads.
//
// The encoded form is the ordinary trace codec carrying KindProbe*
// events, so sealed captures get the same CRC framing, chunked
// storage, and file format as every other recording.

// probeReplaySeedStride spaces per-session tracer seeds, mirroring
// the stride the cooperative scheduler uses for its query threads.
const probeReplaySeedStride = 7919

// ErrNotProbeRecording reports a recording that holds no probe-level
// events where one was required.
var ErrNotProbeRecording = fmt.Errorf("trace: recording holds no probe-level events")

// IsProbeRecording reports whether rec is a probe-level capture (all
// payload events are KindProbe*, session-tagged by KindSwitch and
// optionally query-tagged by KindQueryTag).
func IsProbeRecording(rec *Recording) bool {
	return rec.Stats.ProbeOps > 0 &&
		rec.Stats.ProbeOps+rec.Stats.Switches+rec.Stats.QueryTags == rec.Stats.Events
}

// ReplayProbe replays a probe-level recording through per-session
// tracers over img, emitting the synthesized address-level stream into
// out through one Batcher shared by the tracers and the session and
// query tags. Session s gets a tracer seeded seed+s*7919 (the scheduler's
// stride), so the synthesis is deterministic: the same recording, img
// and seed yield a byte-identical event stream on every call.
//
// The stream is validated as it replays: a malformed capture (probe
// ops at stack depth zero, a function outside img, an unknown kind, a
// negative session) fails with a *ProbeStreamError instead of
// panicking the tracer — captures come from live network traffic and
// are not trusted. Tracers are kept per session slot actually used, so
// a far-out slot number costs one tracer, not a slice up to it.
func ReplayProbe(rec *Recording, img *program.Image, out Consumer, seed int64) error {
	if !IsProbeRecording(rec) {
		return ErrNotProbeRecording
	}
	var (
		tracers = map[int32]*Tracer{}
		cur     *Tracer
		n       int64
		funcs   = img.Registry().Len()
		b       = NewBatcher(out)
	)
	tracerFor := func(slot int32) *Tracer {
		t := tracers[slot]
		if t == nil {
			t = NewTracer(img, b, seed+int64(slot)*probeReplaySeedStride)
			tracers[slot] = t
		}
		return t
	}
	err := rec.ReplayBatch(func(evs []Event) error {
		for i := range evs {
			ev := &evs[i]
			n++
			switch ev.Kind {
			case KindSwitch:
				if ev.N < 0 {
					return probeStreamErr(n, "negative session slot")
				}
				cur = tracerFor(ev.N)
				b.Add(Event{Kind: KindSwitch, N: ev.N})
			case KindQueryTag:
				// Pass the trace-ID tag straight through: it carries no
				// instruction semantics, but a per-query attribution
				// consumer keys its rows on it.
				if cur == nil {
					return probeStreamErr(n, "query tag before first session switch")
				}
				if ev.Addr == 0 {
					return probeStreamErr(n, "zero query trace ID")
				}
				b.Add(Event{Kind: KindQueryTag, Addr: ev.Addr})
			case KindProbeEnter:
				if cur == nil {
					return probeStreamErr(n, "probe op before first session switch")
				}
				if ev.Fn < 0 || int(ev.Fn) >= funcs {
					return probeStreamErr(n, fmt.Sprintf("probe enter names function %d; the image has %d", ev.Fn, funcs))
				}
				cur.Enter(ev.Fn)
			case KindProbeExit:
				if cur == nil || cur.Depth() == 0 {
					return probeStreamErr(n, "probe exit at stack depth zero")
				}
				cur.Exit()
			case KindProbeWork:
				if cur == nil || cur.Depth() == 0 {
					return probeStreamErr(n, "probe work at stack depth zero")
				}
				cur.Work(int(ev.N))
			case KindProbeData:
				if cur == nil || cur.Depth() == 0 {
					return probeStreamErr(n, "probe data at stack depth zero")
				}
				cur.Data(ev.Addr, int(ev.N), ev.Taken)
			default:
				return probeStreamErr(n, "non-probe event kind "+ev.Kind.String())
			}
		}
		return nil
	})
	b.Flush()
	return err
}

// ProbeStreamError is ReplayProbe's one error for a malformed probe
// capture: what was wrong, at which 1-based event.
type ProbeStreamError struct {
	Event int64
	Msg   string
}

func (e *ProbeStreamError) Error() string {
	return fmt.Sprintf("trace: probe replay: event %d: %s", e.Event, e.Msg)
}

// probeStreamErr reports a malformed probe capture at 1-based event n.
func probeStreamErr(n int64, msg string) error {
	return &ProbeStreamError{Event: n, Msg: msg}
}
