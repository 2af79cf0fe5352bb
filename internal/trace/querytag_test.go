package trace

import (
	"errors"
	"math"
	"strings"
	"testing"

	"cgp/internal/isa"
	"cgp/internal/program"
)

// Query-tag handling in probe-level recordings: tags pass through
// replay verbatim, count in stats, keep the recording well-formed,
// and malformed tag placements are rejected. So are the other
// malformed captures a live client can produce: a probe enter naming a
// function outside the image, and a session slot far past any real
// one.

// probeTagImage builds a minimal laid-out image for probe replay.
func probeTagImage() *program.Image {
	reg := program.NewRegistry()
	reg.Register("a", 400)
	reg.Register("b", 400)
	return program.LayoutO5(reg)
}

const tagA, tagB = 0x700000001, 0x700000002

// taggedProbeEvents are two sessions, each running one trace-tagged
// query through function 0.
var taggedProbeEvents = func() []Event {
	var evs []Event
	for i, tag := range []uint64{tagA, tagB} {
		evs = append(evs,
			Event{Kind: KindSwitch, N: int32(i)},
			Event{Kind: KindQueryTag, Addr: isa.Addr(tag)},
			Event{Kind: KindProbeEnter, Fn: 0},
			Event{Kind: KindProbeWork, N: 40},
			Event{Kind: KindProbeExit})
	}
	return evs
}()

// malformedProbeStreams are captures ReplayProbe must reject, each with
// the words its error must contain.
var malformedProbeStreams = []struct {
	name string
	evs  []Event
	want string
}{
	{"tag before switch", []Event{
		{Kind: KindQueryTag, Addr: 7},
		{Kind: KindSwitch, N: 0},
		{Kind: KindProbeEnter, Fn: 0},
		{Kind: KindProbeExit},
	}, "query tag before first session switch"},
	{"zero tag", []Event{
		{Kind: KindSwitch, N: 0},
		{Kind: KindQueryTag, Addr: 0},
		{Kind: KindProbeEnter, Fn: 0},
		{Kind: KindProbeExit},
	}, "zero query trace ID"},
	{"function past the image", []Event{
		{Kind: KindSwitch, N: 0},
		{Kind: KindProbeEnter, Fn: 2},
		{Kind: KindProbeExit},
	}, "names function 2"},
	{"function far past the image", []Event{
		{Kind: KindSwitch, N: 0},
		{Kind: KindProbeEnter, Fn: 9999},
		{Kind: KindProbeExit},
	}, "names function 9999"},
	{"negative function", []Event{
		{Kind: KindSwitch, N: 0},
		{Kind: KindProbeEnter, Fn: 0},
		{Kind: KindProbeEnter, Fn: -5},
		{Kind: KindProbeExit},
	}, "names function -5"},
}

// recordProbe records evs and returns the sealed recording.
func recordProbe(t testing.TB, evs []Event) *Recording {
	t.Helper()
	rec := NewRecorder()
	rec.EventBatch(evs)
	r, err := rec.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestQueryTagPassthrough(t *testing.T) {
	rec := recordProbe(t, taggedProbeEvents)
	if !IsProbeRecording(rec) {
		t.Fatalf("tagged capture not recognized as probe recording: %+v", rec.Stats)
	}
	if rec.Stats.QueryTags != 2 {
		t.Fatalf("stats count %d query tags, want 2", rec.Stats.QueryTags)
	}

	var got []uint64
	var st Stats
	if err := ReplayProbe(rec, probeTagImage(), ConsumerFunc(func(evs []Event) {
		st.EventBatch(evs)
		for _, ev := range evs {
			if ev.Kind == KindQueryTag {
				got = append(got, uint64(ev.Addr))
			}
		}
	}), 42); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != tagA || got[1] != tagB {
		t.Fatalf("replayed tags = %#x, want [%#x %#x]", got, tagA, tagB)
	}
	if st.Instructions == 0 {
		t.Fatal("tagged replay synthesized no instructions")
	}
}

func TestQueryTagBeforeSwitchRejected(t *testing.T) {
	checkProbeRejected(t, malformedProbeStreams[0].evs, "query tag before first session switch")
}

func TestQueryTagZeroIDRejected(t *testing.T) {
	checkProbeRejected(t, malformedProbeStreams[1].evs, "zero query trace ID")
}

// TestProbeEnterOutsideImageRejected: a probe enter naming a function
// the image does not have fails with a probe-stream error instead of
// indexing past the image's placement table.
func TestProbeEnterOutsideImageRejected(t *testing.T) {
	for _, tc := range malformedProbeStreams[2:] {
		t.Run(tc.name, func(t *testing.T) { checkProbeRejected(t, tc.evs, tc.want) })
	}
}

// TestProbeFarSessionSlot: a session switch to the largest slot costs
// one tracer, not a tracer table of 2^31 entries (16 GiB).
func TestProbeFarSessionSlot(t *testing.T) {
	rec := recordProbe(t, []Event{
		{Kind: KindSwitch, N: math.MaxInt32},
		{Kind: KindProbeEnter, Fn: 1},
		{Kind: KindProbeWork, N: 40},
		{Kind: KindProbeExit},
		{Kind: KindSwitch, N: 0},
		{Kind: KindProbeEnter, Fn: 0},
		{Kind: KindProbeExit},
	})
	var st Stats
	if err := ReplayProbe(rec, probeTagImage(), &st, 42); err != nil {
		t.Fatal(err)
	}
	if st.Switches != 2 || st.Calls != 2 || st.Instructions == 0 {
		t.Fatalf("far-slot replay synthesized %+v", st)
	}
}

// checkProbeRejected requires ReplayProbe to fail on evs with a
// *ProbeStreamError whose message contains want.
func checkProbeRejected(t *testing.T, evs []Event, want string) {
	t.Helper()
	err := ReplayProbe(recordProbe(t, evs), probeTagImage(), Discard, 42)
	var pe *ProbeStreamError
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), want) {
		t.Fatalf("ReplayProbe error = %v, want a *ProbeStreamError containing %q", err, want)
	}
}
