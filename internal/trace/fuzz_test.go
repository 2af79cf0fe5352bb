package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
	"testing"

	"cgp/internal/isa"
	"cgp/internal/program"
)

// Native fuzz targets for the trace codec. Run one with, e.g.
//
//	go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 15s ./internal/trace
//
// Both targets are seeded from TestCodecRoundTrip's events and a short
// real recording; testdata/fuzz holds the checked-in corpus. The seeds
// stay small because the fuzzer minimizes every input that finds new
// coverage, at a cost quadratic in its length.

// realTraceEvents returns the first 48 events of a synthesized run.
func realTraceEvents() []Event {
	img, ids := testImage()
	var c Capture
	traced(img, &c, 11, ids)
	return c.Events[:48]
}

// encodeRecords returns the encoded records of evs, header stripped.
func encodeRecords(evs []Event) []byte {
	return encode(evs...)[len(traceMagic):]
}

// checkDecodeErr fails unless err is nil or one of the two decode
// error classes.
func checkDecodeErr(t *testing.T, path string, err error) {
	t.Helper()
	if err != nil && !errors.Is(err, ErrMalformed) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("%s: untyped decode error %v", path, err)
	}
}

// FuzzDecode decodes arbitrary records through Load+ReplayBatch and
// through flatDecode, the reference decoder. Neither may panic; both
// must fail with the same error class or decode the same events.
func FuzzDecode(f *testing.F) {
	f.Add(encodeRecords(codecTestEvents))
	f.Add(encodeRecords(realTraceEvents()))
	f.Fuzz(func(t *testing.T, data []byte) {
		stream := append(traceMagic[:len(traceMagic):len(traceMagic)], data...)

		var loaded []Event
		rec, lerr := Load(bytes.NewReader(stream))
		checkDecodeErr(t, "Load", lerr)
		if lerr == nil {
			if err := rec.ReplayBatch(func(evs []Event) error {
				loaded = append(loaded, evs...)
				return nil
			}); err != nil {
				t.Fatalf("ReplayBatch of a loaded recording: %v", err)
			}
		}

		read, rerr := flatDecode(stream)
		checkDecodeErr(t, "flat decode", rerr)

		if errors.Is(lerr, ErrMalformed) != errors.Is(rerr, ErrMalformed) || (lerr == nil) != (rerr == nil) {
			t.Fatalf("Load error %v, flat decode error %v", lerr, rerr)
		}
		if lerr != nil {
			return
		}
		if !slices.Equal(loaded, read) {
			t.Fatalf("Load decoded %d events, flat decode %d, and they differ", len(loaded), len(read))
		}
		var st Stats
		st.EventBatch(read)
		if st != rec.Stats {
			t.Fatalf("Load counted %+v, the events count %+v", rec.Stats, st)
		}
	})
}

// fuzzEvents builds FuzzRoundTrip's event sequence. data is a list of
// event records: a kind<<1|taken byte, a mask byte, then for each set
// mask bit (in Event field order: Addr, Target, CallerStart, N, Iters,
// Fn, Caller) a zigzag varint delta of that field from the previous
// event's. Deltas wrap, so any field value can follow any other.
func fuzzEvents(data []byte) []Event {
	var evs []Event
	var prev [7]uint64
	for len(data) >= 2 {
		kind, mask := data[0], data[1]
		data = data[2:]
		f := prev
		for i := range f {
			if mask&(1<<i) == 0 {
				continue
			}
			u, n := binary.Uvarint(data)
			if n <= 0 {
				return evs
			}
			data = data[n:]
			f[i] += u>>1 ^ -(u & 1)
		}
		prev = f
		evs = append(evs, Event{
			Kind:        Kind(kind>>1) % (KindQueryTag + 1),
			Taken:       kind&1 != 0,
			Addr:        isa.Addr(f[0]),
			Target:      isa.Addr(f[1]),
			CallerStart: isa.Addr(f[2]),
			N:           int32(f[3]),
			Iters:       int32(f[4]),
			Fn:          program.FuncID(int32(f[5])),
			Caller:      program.FuncID(int32(f[6])),
		})
	}
	return evs
}

// fuzzInput is the inverse of fuzzEvents.
func fuzzInput(evs []Event) []byte {
	var b []byte
	var prev [7]uint64
	for _, ev := range evs {
		f := [7]uint64{uint64(ev.Addr), uint64(ev.Target), uint64(ev.CallerStart),
			uint64(ev.N), uint64(ev.Iters), uint64(ev.Fn), uint64(ev.Caller)}
		kind := byte(ev.Kind) << 1
		if ev.Taken {
			kind |= 1
		}
		var mask byte
		var deltas []byte
		for i := range f {
			if d := int64(f[i] - prev[i]); d != 0 {
				mask |= 1 << i
				deltas = binary.AppendVarint(deltas, d)
			}
		}
		b = append(append(b, kind, mask), deltas...)
		prev = f
	}
	return b
}

// extremeEvents wrap every delta: addresses at both ends of the 64-bit
// range, targets below their Addr, and int32 fields at their limits.
var extremeEvents = []Event{
	{Kind: KindCall, Addr: math.MaxUint64, Target: 0, CallerStart: 1 << 63, Fn: math.MaxInt32, Caller: math.MinInt32},
	{Kind: KindBranch, Addr: 1, Target: math.MaxUint64, Taken: true},
	{Kind: KindReturn, Addr: 1 << 63, Target: 1, CallerStart: math.MaxUint64, Fn: -1, Caller: 1},
	{Kind: KindLoop, Addr: math.MaxUint64 - 3, N: math.MaxInt32, Iters: math.MinInt32},
	{Kind: KindQueryTag, Addr: 0xdeadbeefcafef00d},
	{Kind: KindRun, Addr: 4, N: math.MinInt32},
}

// FuzzRoundTrip writes the input's events through a Writer, which Load
// must read back, and the events repeated well past the first
// skip-index checkpoint through a Recorder with small chunks, so
// records straddle chunk boundaries. ReplayBatch and a sampled replay
// whose skip crosses the checkpoint must return that sequence, the
// Recorder must encode it as the Writer does, and the Recorder's skip
// index must match a decode pass. Only the recorded path carries the
// long sequence: the fuzzer minimizes every input that finds new
// coverage, so an exec has to stay cheap.
func FuzzRoundTrip(f *testing.F) {
	for _, seed := range [][]Event{codecTestEvents, realTraceEvents(), extremeEvents} {
		in := fuzzInput(seed)
		if !slices.Equal(fuzzEvents(in), seed) {
			f.Fatal("fuzzInput does not invert fuzzEvents")
		}
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pattern := fuzzEvents(data)

		encoded := encode(pattern...)
		if got, err := loadEvents(encoded); err != nil || !slices.Equal(got, pattern) {
			t.Fatalf("Load returned %d of %d events: %v", len(got), len(pattern), err)
		}
		if len(pattern) == 0 {
			return
		}

		evs := make([]Event, 0, skipIndexEvery+128+len(pattern))
		for len(evs) < skipIndexEvery+128 {
			evs = append(evs, pattern...)
		}
		r := newRecorder(97)
		r.EventBatch(evs)
		rec, err := r.Finish()
		if err != nil {
			t.Fatal(err)
		}
		var recorded bytes.Buffer
		if _, err := rec.WriteTo(&recorded); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(recorded.Bytes(), encoded) {
			t.Fatal("the encoding of a stream's prefix is not a prefix of its encoding")
		}
		next := 0
		if err := rec.ReplayBatch(func(b []Event) error {
			if next+len(b) > len(evs) || !slices.Equal(b, evs[next:next+len(b)]) {
				t.Fatalf("ReplayBatch returns different events from event %d", next)
			}
			next += len(b)
			return nil
		}); err != nil || next != len(evs) {
			t.Fatalf("ReplayBatch returned %d of %d events: %v", next, len(evs), err)
		}
		if _, idx, err := rec.scan(); err != nil || !slices.Equal(idx, rec.idx) {
			t.Fatalf("decode pass index differs from the recorder's (err %v)", err)
		}

		// Measure up to 63 events, skip across the first checkpoint,
		// measure the rest.
		head := int64(data[0]) % 64
		skip := skipIndexEvery - head + int64(data[len(data)-1])%64 + 1
		var got sampledCapture
		if err := rec.ReplaySampledInto([]Span{
			{Kind: SpanMeasure, Events: head},
			{Kind: SpanSkip, Events: skip},
			{Kind: SpanMeasure, Events: int64(len(evs)) - head - skip},
		}, &got); err != nil {
			t.Fatalf("ReplaySampled: %v", err)
		}
		var delivered []Event
		for _, sp := range got.spans {
			delivered = append(delivered, sp...)
		}
		tail := evs[head+skip:]
		if int64(len(delivered)) != head+int64(len(tail)) ||
			!slices.Equal(delivered[:head], evs[:head]) || !slices.Equal(delivered[head:], tail) {
			t.Fatal("sampled replay delivers different events")
		}
		if !slices.Equal(got.skips, []int64{skip}) || got.skInstr != instrsOf(evs[head:head+skip]) {
			t.Fatalf("skip reported %v events, %d instrs; want %d, %d",
				got.skips, got.skInstr, skip, instrsOf(evs[head:head+skip]))
		}
	})
}

// FuzzReplayProbe feeds arbitrary records to Load and, when they form
// a probe recording, replays them through ReplayProbe over a small
// synthetic image: the path live captures take into the simulator.
// Nothing may panic; Load may fail only with a decode error and
// ReplayProbe only with a *ProbeStreamError; and a replay that
// succeeds must synthesize the same stream again. Seeded from the
// query-tag tests' streams.
func FuzzReplayProbe(f *testing.F) {
	f.Add(encodeRecords(taggedProbeEvents))
	for _, tc := range malformedProbeStreams {
		f.Add(encodeRecords(tc.evs))
	}
	img := probeTagImage()
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Load(bytes.NewReader(append(traceMagic[:len(traceMagic):len(traceMagic)], data...)))
		checkDecodeErr(t, "Load", err)
		if err != nil || !IsProbeRecording(rec) {
			return
		}
		var st Stats
		err = ReplayProbe(rec, img, &st, 42)
		var pe *ProbeStreamError
		if err != nil && !errors.As(err, &pe) {
			t.Fatalf("ReplayProbe: untyped error %v", err)
		}
		if err != nil {
			return
		}
		var again Stats
		if err := ReplayProbe(rec, img, &again, 42); err != nil || again != st {
			t.Fatalf("second replay synthesized %+v (%v), first %+v", again, err, st)
		}
	})
}
