package trace

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"cgp/internal/isa"
	"cgp/internal/program"
)

// recordTestEvents synthesizes a stream long enough to span several
// chunks when recorded with a small chunk size.
func recordTestEvents(n int) []Event {
	evs := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		switch i % 5 {
		case 0:
			evs = append(evs, Event{Kind: KindRun, Addr: isa.Addr(0x400000 + i*32), N: int32(1 + i%40)})
		case 1:
			evs = append(evs, Event{Kind: KindCall, Addr: isa.Addr(0x400100 + i*8),
				Target: isa.Addr(0x500000 + i*64), CallerStart: 0x400000,
				Fn: program.FuncID(i % 97), Caller: program.FuncID(i % 31)})
		case 2:
			evs = append(evs, Event{Kind: KindBranch, Addr: isa.Addr(0x400200 + i*4),
				Target: isa.Addr(0x400000), Taken: i%2 == 0})
		case 3:
			evs = append(evs, Event{Kind: KindLoop, Addr: isa.Addr(0x400300), N: 12, Iters: int32(i%9 + 1)})
		default:
			evs = append(evs, Event{Kind: KindReturn, Addr: isa.Addr(0x500000 + i*64),
				Target: 0x400104, CallerStart: 0x400000,
				Fn: program.FuncID(i % 97), Caller: program.FuncID(i % 31)})
		}
	}
	return evs
}

// encodeInto encodes evs, header included, into a chunk buffer of
// chunkSize-byte chunks (0 for the default), with no recording around
// it.
func encodeInto(chunkSize int, evs []Event) *chunkBuffer {
	buf := newChunkBuffer(chunkSize)
	w := newWriter(buf)
	for i := range evs {
		w.event(&evs[i])
	}
	w.flush()
	return buf
}

func TestRecordingRoundTrip(t *testing.T) {
	evs := recordTestEvents(10000)
	r := NewRecorder()
	r.EventBatch(evs)
	rec, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Events() != int64(len(evs)) {
		t.Fatalf("Events() = %d, want %d", rec.Events(), len(evs))
	}
	var got Capture
	if err := rec.Replay(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, evs) {
		t.Fatal("replayed events differ from recorded events")
	}

	// The recorded stats must match a Stats consumer fed directly.
	var direct Stats
	direct.EventBatch(evs)
	if rec.Stats != direct {
		t.Errorf("recorded stats %+v differ from direct stats %+v", rec.Stats, direct)
	}
}

// TestRecordingChunkBoundaries forces tiny chunks so events span chunk
// boundaries, and checks the stream still decodes exactly.
func TestRecordingChunkBoundaries(t *testing.T) {
	evs := recordTestEvents(500)
	var stats Stats
	stats.EventBatch(evs)
	// Adversarial chunks, smaller than one encoded event.
	rec := &Recording{buf: encodeInto(13, evs), Stats: stats}
	var got Capture
	if err := rec.Replay(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, evs) {
		t.Fatal("chunk-boundary replay differs")
	}
}

// TestRecordingConcurrentReplay replays one recording from several
// goroutines at once; each must see the full stream (run with -race).
func TestRecordingConcurrentReplay(t *testing.T) {
	evs := recordTestEvents(3000)
	r := NewRecorder()
	r.EventBatch(evs)
	rec, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	counts := make([]int64, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var s Stats
			errs[i] = rec.Replay(&s)
			counts[i] = s.Events
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if counts[i] != int64(len(evs)) {
			t.Errorf("replay %d saw %d events, want %d", i, counts[i], len(evs))
		}
	}
}

// batchCapture records both the events and the batch sizes the
// replayer delivered. It copies out of the batch slice, per the
// interface contract.
type batchCapture struct {
	events  []Event
	batches []int
}

func (b *batchCapture) EventBatch(evs []Event) {
	b.events = append(b.events, evs...)
	b.batches = append(b.batches, len(evs))
}

// TestReplayBatchDelivery: a consumer must receive the exact recorded
// stream in full batches of replayBatch plus one final partial batch.
func TestReplayBatchDelivery(t *testing.T) {
	const n = 3*replayBatch + 17
	evs := recordTestEvents(n)
	r := NewRecorder()
	r.EventBatch(evs)
	rec, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var got batchCapture
	if err := rec.Replay(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.events, evs) {
		t.Fatal("batched replay differs from recorded events")
	}
	want := []int{replayBatch, replayBatch, replayBatch, 17}
	if !reflect.DeepEqual(got.batches, want) {
		t.Errorf("batch sizes = %v, want %v", got.batches, want)
	}
}

// TestReplayBatchChunkBoundaries drives the batched decoder through the
// slow path: adversarially tiny chunks mean no record ever lies wholly
// inside one chunk.
func TestReplayBatchChunkBoundaries(t *testing.T) {
	evs := recordTestEvents(2*replayBatch + 3)
	rec := &Recording{buf: encodeInto(13, evs)}
	var got []Event
	if err := rec.ReplayBatch(func(b []Event) error { got = append(got, b...); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatal("chunk-straddling batched replay differs")
	}
}

// TestReplayAllocsIndependentOfLength pins the reusable-buffer design:
// a Replay call allocates a fixed setup cost (the batch buffer and the
// dispatch closure), not per batch — so the count must not grow with
// the recording length.
func TestReplayAllocsIndependentOfLength(t *testing.T) {
	record := func(n int) *Recording {
		r := NewRecorder()
		r.EventBatch(recordTestEvents(n))
		rec, err := r.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	small := record(replayBatch / 2)  // one partial batch
	large := record(64 * replayBatch) // many batches
	var sink batchCapture
	sink.events = make([]Event, 0, 64*replayBatch+1)
	sink.batches = make([]int, 0, 128)
	measure := func(rec *Recording) float64 {
		return testing.AllocsPerRun(10, func() {
			sink.events = sink.events[:0]
			sink.batches = sink.batches[:0]
			if err := rec.Replay(&sink); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1, a2 := measure(small), measure(large)
	if a1 != a2 {
		t.Errorf("replay allocations scale with length: %v for %d events vs %v for %d",
			a1, small.Events(), a2, large.Events())
	}
	if a2 > 8 {
		t.Errorf("replay allocates %v times per call, want a small constant", a2)
	}
}

// TestRecordingWriteTo checks that the raw bytes are codec-compatible.
func TestRecordingWriteTo(t *testing.T) {
	evs := recordTestEvents(200)
	r := NewRecorder()
	r.EventBatch(evs)
	rec, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := rec.WriteTo(&buf)
	if err != nil || n != rec.Bytes() {
		t.Fatalf("WriteTo = %d, %v; want %d bytes", n, err, rec.Bytes())
	}
	got, err := flatDecode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatal("WriteTo bytes decode differently")
	}
}
