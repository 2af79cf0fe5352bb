package trace

import (
	"bytes"
	"reflect"
	"testing"

	"cgp/internal/units"
)

// sampledCapture records everything a sampled replay delivers, span by
// span.
type sampledCapture struct {
	kinds   []SpanKind
	spans   [][]Event
	skips   []int64
	skInstr units.Instrs
}

func (s *sampledCapture) BeginSpan(k SpanKind) {
	s.kinds = append(s.kinds, k)
	s.spans = append(s.spans, nil)
}

func (s *sampledCapture) SkipSpan(events int64, instrs units.Instrs) {
	s.skips = append(s.skips, events)
	s.skInstr += instrs
}

func (s *sampledCapture) EventBatch(evs []Event) {
	i := len(s.spans) - 1
	s.spans[i] = append(s.spans[i], evs...)
}

func recordSampleTest(t *testing.T, n int) (*Recording, []Event) {
	t.Helper()
	evs := recordTestEvents(n)
	r := NewRecorder()
	r.EventBatch(evs)
	rec, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return rec, evs
}

func instrsOf(evs []Event) units.Instrs {
	var total units.Instrs
	for _, ev := range evs {
		total += ev.Instructions()
	}
	return total
}

func TestReplaySampledDeliversExactSpans(t *testing.T) {
	rec, evs := recordSampleTest(t, 20000)
	spans := []Span{
		{Kind: SpanSkip, Events: 7000},
		{Kind: SpanFunctionalWarm, Events: 2000},
		{Kind: SpanDetailWarm, Events: 500},
		{Kind: SpanMeasure, Events: 1500},
		{Kind: SpanSkip, Events: 6000},
		{Kind: SpanMeasure, Events: 3000},
	}
	var got sampledCapture
	if err := rec.ReplaySampledInto(spans, &got); err != nil {
		t.Fatal(err)
	}
	wantKinds := []SpanKind{SpanFunctionalWarm, SpanDetailWarm, SpanMeasure, SpanMeasure}
	if !reflect.DeepEqual(got.kinds, wantKinds) {
		t.Fatalf("span kinds = %v, want %v", got.kinds, wantKinds)
	}
	wantSpans := [][]Event{evs[7000:9000], evs[9000:9500], evs[9500:11000], evs[17000:20000]}
	for i, want := range wantSpans {
		if !reflect.DeepEqual(got.spans[i], want) {
			t.Fatalf("decoded span %d differs from the recorded slice", i)
		}
	}
	if !reflect.DeepEqual(got.skips, []int64{7000, 6000}) {
		t.Fatalf("skip events = %v, want [7000 6000]", got.skips)
	}
	wantSkInstr := instrsOf(evs[:7000]) + instrsOf(evs[11000:17000])
	if got.skInstr != wantSkInstr {
		t.Fatalf("skipped instrs = %d, want %d", got.skInstr, wantSkInstr)
	}
}

func TestReplaySampledInstructionConservation(t *testing.T) {
	// Decoded + skipped instructions must equal the exact stream total
	// for any plan shape, including skips that straddle index points
	// and chunk boundaries.
	rec, evs := recordSampleTest(t, 50000)
	total := instrsOf(evs)
	plans := [][]Span{
		{{SpanSkip, 50000}},
		{{SpanMeasure, 50000}},
		{{SpanSkip, 4095}, {SpanMeasure, 1}, {SpanSkip, 4097}, {SpanMeasure, 41807}},
		{{SpanSkip, 1}, {SpanFunctionalWarm, 1}, {SpanSkip, 49997}, {SpanMeasure, 1}},
		{{SpanSkip, 12288}, {SpanDetailWarm, 100}, {SpanSkip, 12288}, {SpanMeasure, 25324}},
	}
	for pi, spans := range plans {
		var got sampledCapture
		if err := rec.ReplaySampledInto(spans, &got); err != nil {
			t.Fatalf("plan %d: %v", pi, err)
		}
		var decoded units.Instrs
		for _, sp := range got.spans {
			decoded += instrsOf(sp)
		}
		if decoded+got.skInstr != total {
			t.Fatalf("plan %d: decoded %d + skipped %d != total %d", pi, decoded, got.skInstr, total)
		}
	}
}

func TestReplaySampledMatchesFullReplay(t *testing.T) {
	// An all-measure plan must deliver the identical event sequence a
	// plain replay does.
	rec, evs := recordSampleTest(t, 3000)
	var got sampledCapture
	if err := rec.ReplaySampledInto([]Span{{Kind: SpanMeasure, Events: 3000}}, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.spans) != 1 || !reflect.DeepEqual(got.spans[0], evs) {
		t.Fatal("all-measure sampled replay differs from the recorded stream")
	}
}

func TestReplaySampledConcurrent(t *testing.T) {
	// Concurrent sampled replays of one recording share its skip
	// index and must not share decoder state (the runner replays a
	// memoized recording from many worker goroutines).
	rec, _ := recordSampleTest(t, 30000)
	spans := []Span{
		{Kind: SpanSkip, Events: 20000},
		{Kind: SpanMeasure, Events: 10000},
	}
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			var got sampledCapture
			errs <- rec.ReplaySampledInto(spans, &got)
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestReplaySampledCorruptionDetected(t *testing.T) {
	rec, _ := recordSampleTest(t, 5000)
	rec.buf.chunks[0][len(traceMagic)+3] ^= 0x40
	err := rec.ReplaySampledInto([]Span{{Kind: SpanMeasure, Events: 5000}}, &sampledCapture{})
	if _, ok := err.(*CorruptionError); !ok {
		t.Fatalf("corrupted sampled replay returned %v, want *CorruptionError", err)
	}
}

func TestLoadRoundTrip(t *testing.T) {
	rec, evs := recordSampleTest(t, 4000)
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Stats != rec.Stats {
		t.Fatalf("loaded stats %+v differ from recorded %+v", loaded.Stats, rec.Stats)
	}
	var got Capture
	if err := loaded.Replay(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, evs) {
		t.Fatal("loaded recording replays different events")
	}
	// And the loaded recording supports sampled replay.
	var sc sampledCapture
	if err := loaded.ReplaySampledInto([]Span{
		{Kind: SpanSkip, Events: 1000},
		{Kind: SpanMeasure, Events: 3000},
	}, &sc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc.spans[0], evs[1000:]) {
		t.Fatal("sampled replay of loaded recording differs")
	}
}

// TestRecorderSkipIndexMatchesDecodePass: the checkpoints a Recorder
// takes while encoding (stream position, events, instructions, delta
// bases) must be exactly the decoder state a decode pass over the
// sealed stream reaches, with records straddling many chunks, and Load
// must rebuild the same index from the same bytes.
func TestRecorderSkipIndexMatchesDecodePass(t *testing.T) {
	const n = 5*skipIndexEvery + 17
	r := newRecorder(1000)
	r.EventBatch(recordTestEvents(n))
	rec, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.buf.chunks) < 100 {
		t.Fatalf("only %d chunks; the test needs a multi-chunk recording", len(rec.buf.chunks))
	}
	if len(rec.idx) != n/skipIndexEvery {
		t.Fatalf("recorder took %d checkpoints, want %d", len(rec.idx), n/skipIndexEvery)
	}
	for i, p := range rec.idx {
		if p.events != int64(i+1)*skipIndexEvery || p.bases == (bases{}) {
			t.Fatalf("checkpoint %d = %+v", i, p)
		}
	}
	st, idx, err := rec.scan()
	if err != nil {
		t.Fatal(err)
	}
	if st != rec.Stats {
		t.Fatalf("decode pass counts %+v, recorder %+v", st, rec.Stats)
	}
	if !reflect.DeepEqual(idx, rec.idx) {
		t.Fatalf("decode pass checkpoints\n%+v\nrecorder checkpoints\n%+v", idx, rec.idx)
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.idx, rec.idx) {
		t.Fatal("Load built a different skip index")
	}
}
