package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"cgp/internal/isa"
	"cgp/internal/program"
)

// codecTestEvents covers every address-level kind, a data reference
// far from the code, a record with no address, and a negative FuncID.
var codecTestEvents = []Event{
	{Kind: KindRun, Addr: 0x400000, N: 12, Fn: 3},
	{Kind: KindCall, Addr: 0x400030, Target: 0x401000, Fn: 4, Caller: 3, CallerStart: 0x400000},
	{Kind: KindBranch, Addr: 0x401010, Target: 0x401040, Taken: true, Fn: 4},
	{Kind: KindLoop, Addr: 0x401100, N: 24, Iters: 100, Fn: 4},
	{Kind: KindReturn, Addr: 0x401000, Target: 0x400034, Fn: 4, Caller: 3, CallerStart: 0x400000},
	{Kind: KindData, Addr: 0x40000000, N: 260, Taken: true},
	{Kind: KindSwitch, N: 2},
	{Kind: KindReturn, Fn: 0, Caller: program.NoFunc},
}

func TestCodecRoundTrip(t *testing.T) {
	events := codecTestEvents
	got, err := loadEvents(encode(events...))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", events, got)
	}
}

// encode returns evs in the on-disk trace format, header included, as
// a Recorder and Recording.WriteTo write it.
func encode(evs ...Event) []byte {
	r := NewRecorder()
	r.EventBatch(evs)
	rec, err := r.Finish()
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// loadEvents reads stream through Load and returns every event a full
// replay of the recording delivers.
func loadEvents(stream []byte) ([]Event, error) {
	rec, err := Load(bytes.NewReader(stream))
	if err != nil {
		return nil, err
	}
	var evs []Event
	err = rec.ReplayBatch(func(b []Event) error {
		evs = append(evs, b...)
		return nil
	})
	return evs, err
}

func TestCodecBadMagic(t *testing.T) {
	// A CGPTRC01 stream: the retired format's header and one run
	// record (flags, then seven varints).
	v1 := append(v1Magic[:], 0, 0x80, 0x80, 0x01, 0, 0, 24, 6, 0)
	for _, tc := range []struct {
		name   string
		stream []byte
		want   error
	}{
		{"garbage", []byte("notatrace..."), ErrBadMagic},
		{"retired CGPTRC01", v1, ErrRetiredFormat},
	} {
		if _, err := Load(bytes.NewReader(tc.stream)); err != tc.want {
			t.Errorf("%s: Load err = %v, want %v", tc.name, err, tc.want)
		}
		if _, err := flatDecode(tc.stream); err != tc.want {
			t.Errorf("%s: flat decode err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if msg := ErrRetiredFormat.Error(); !strings.Contains(msg, "CGPTRC01") || !strings.Contains(msg, "re-record") {
		t.Errorf("retired-format error %q does not name the format and the fix", msg)
	}
}

// record assembles one raw record: flags, presence, then each value as
// a uvarint (callers zigzag the signed ones with zz).
func record(flags, has byte, vals ...uint64) []byte {
	b := []byte{flags, has}
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// zz is the zigzag encoding of v.
func zz(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// TestLoadRejectsGarbage feeds malformed streams through Load and
// through flatDecode, the reference decoder. Each bad record follows a
// good one, so the failure is mid-stream, and each must fail with the
// expected error class rather than decode.
func TestLoadRejectsGarbage(t *testing.T) {
	good := record(byte(KindRun)<<1, hasAddr|hasN, zz(0x400000), zz(12))
	overflow := append([]byte{byte(KindRun) << 1, hasAddr}, bytes.Repeat([]byte{0xff}, 11)...)
	for _, tc := range []struct {
		name   string
		stream []byte
		want   error
	}{
		{"not a trace", []byte("not a trace at all"), ErrBadMagic},
		{"retired format", append(v1Magic[:], 0, 0x80, 0x80, 0x01, 0, 0, 24, 6, 0), ErrRetiredFormat},
		{"kind 127", record(127<<1, hasN, zz(12)), ErrMalformed},
		{"kind above KindQueryTag", record(byte(KindQueryTag+1)<<1, 0), ErrMalformed},
		{"reserved flags bit", record(0x20|byte(KindRun)<<1, hasN, zz(12)), ErrMalformed},
		{"reserved presence bit", record(byte(KindRun)<<1, 0x80|hasN, zz(12)), ErrMalformed},
		{"n above int32", record(byte(KindRun)<<1, hasN, zz(1<<33+12)), ErrMalformed},
		{"iters below int32", record(byte(KindLoop)<<1, hasN|hasIters, zz(4), zz(math.MinInt32-1)), ErrMalformed},
		{"fn above int32", record(byte(KindCall)<<1, hasFn, zz(math.MaxInt32+1)), ErrMalformed},
		{"caller below int32", record(byte(KindCall)<<1, hasCaller, zz(math.MinInt64)), ErrMalformed},
		{"varint overflow", overflow, ErrMalformed},
		{"truncated field", record(byte(KindRun)<<1, hasAddr|hasN, zz(32)), io.ErrUnexpectedEOF},
		{"truncated varint", []byte{byte(KindRun) << 1, hasAddr, 0x80}, io.ErrUnexpectedEOF},
		{"truncated presence", []byte{byte(KindRun) << 1}, io.ErrUnexpectedEOF},
	} {
		stream := tc.stream
		if tc.want != ErrBadMagic && tc.want != ErrRetiredFormat {
			stream = append(append(traceMagic[:], good...), tc.stream...)
		}
		if _, err := Load(bytes.NewReader(stream)); !errors.Is(err, tc.want) {
			t.Errorf("%s: Load err = %v, want %v", tc.name, err, tc.want)
		}
		if _, err := flatDecode(stream); !errors.Is(err, tc.want) {
			t.Errorf("%s: flat decode err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// flatDecode is the reference decoder: decodeEventInto walked over one
// flat byte slice, independent of the chunked decoder Load and every
// replay use. It returns the events decoded before the first error.
func flatDecode(stream []byte) ([]Event, error) {
	if err := checkMagic(stream); err != nil {
		return nil, err
	}
	var evs []Event
	var s bases
	for b := stream[len(traceMagic):]; len(b) > 0; {
		var ev Event
		n, err := decodeEventInto(b, &ev, &s)
		if err != nil {
			return evs, err
		}
		evs = append(evs, ev)
		b = b[n:]
	}
	return evs, nil
}

func TestCodecTruncated(t *testing.T) {
	raw := encode(Event{Kind: KindRun, Addr: 0x400000, N: 12})
	if _, err := Load(bytes.NewReader(raw[:len(raw)-2])); err == nil {
		t.Error("truncated record decoded without error")
	}
}

func TestReplay(t *testing.T) {
	var evs []Event
	for i := 0; i < 10; i++ {
		evs = append(evs, Event{Kind: KindRun, Addr: isa.Addr(0x400000 + i*32), N: 8})
	}
	rec, err := Load(bytes.NewReader(encode(evs...)))
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := rec.Replay(&st); err != nil {
		t.Fatal(err)
	}
	if st.Instructions != 80 {
		t.Errorf("replayed %d instructions, want 80", st.Instructions)
	}
}

// Property: any event with in-range fields round-trips exactly, after
// any other: the delta bases wrap, so every pair of 64-bit addresses
// encodes.
func TestCodecProperty(t *testing.T) {
	f := func(prev, addr, target, cs uint64, kind uint8, n, iters, fn, caller int32, taken bool) bool {
		first := Event{Kind: KindCall, Addr: isa.Addr(prev), CallerStart: isa.Addr(^prev)}
		ev := Event{
			Kind:        Kind(kind) % (KindQueryTag + 1),
			Addr:        isa.Addr(addr),
			Target:      isa.Addr(target),
			CallerStart: isa.Addr(cs),
			N:           n,
			Iters:       iters,
			Fn:          program.FuncID(fn),
			Caller:      program.FuncID(caller),
			Taken:       taken,
		}
		got, err := loadEvents(encode(first, ev))
		return err == nil && len(got) == 2 && got[0] == first && got[1] == ev
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Round-trip a real synthesized trace through the codec and verify a
// replayed CPU-visible stream is byte-identical.
func TestCodecFullTrace(t *testing.T) {
	img, ids := testImage()
	var direct Capture
	traced(img, &direct, 11, ids)
	rec, err := Load(bytes.NewReader(encode(direct.Events...)))
	if err != nil {
		t.Fatal(err)
	}
	var replayed Capture
	if err := rec.Replay(&replayed); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Events, replayed.Events) {
		t.Fatal("replayed trace differs from live trace")
	}
}
