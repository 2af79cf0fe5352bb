package refsim

import (
	"reflect"
	"testing"

	"cgp/internal/isa"
	"cgp/internal/program"
	"cgp/internal/trace"
)

// TestEncodeV1RoundTrip: the frozen encoder and decoder must carry a
// recording's exact event stream, so the kernel baseline replays the
// same events the optimized path does.
func TestEncodeV1RoundTrip(t *testing.T) {
	r := trace.NewRecorder()
	var want []trace.Event
	for i := 0; i < 3000; i++ {
		ev := trace.Event{Kind: trace.Kind(i % 7), Addr: isa.Addr(0x400000 + 4*i), N: int32(i % 40),
			Target: isa.Addr(0x500000 + i), Fn: program.FuncID(i % 300), Caller: program.NoFunc, Taken: i%3 == 0}
		want = append(want, ev)
		r.Event(ev)
	}
	rec, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := EncodeV1(rec)
	if err != nil {
		t.Fatal(err)
	}
	var got trace.Capture
	if err := Replay(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, want) {
		t.Fatal("V1 round trip changed the event stream")
	}
}
