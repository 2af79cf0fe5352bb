package refsim

import (
	"reflect"
	"testing"

	"cgp/internal/isa"
	"cgp/internal/program"
	"cgp/internal/trace"
)

// capture stores the events Replay dispatches one at a time.
type capture []trace.Event

// Event implements Consumer.
func (c *capture) Event(ev trace.Event) { *c = append(*c, ev) }

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
	}
	r.EventBatch(want)
	rec, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := EncodeV1(rec)
	if err != nil {
		t.Fatal(err)
	}
	var got capture
	if err := Replay(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual([]trace.Event(got), want) {
		t.Fatal("V1 round trip changed the event stream")
	}
}
