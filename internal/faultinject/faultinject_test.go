package faultinject

import (
	"errors"
	"testing"

	"cgp/internal/isa"
	"cgp/internal/trace"
)

func events(n int) []trace.Event {
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = trace.Event{Kind: trace.KindRun, Addr: 0x1000 + isa.Addr(i)*4, N: 1}
	}
	return evs
}

// feedBatches hands c evs in batches of size, the last one partial.
func feedBatches(c trace.Consumer, evs []trace.Event, size int) {
	for i := 0; i < len(evs); i += size {
		c.EventBatch(evs[i:min(i+size, len(evs))])
	}
}

func TestPanicAfterFiresAtExactEvent(t *testing.T) {
	for _, size := range []int{1, 3, 4, 5, 10} {
		var st trace.Stats
		c := PanicAfter(&st, 5, "boom")
		fired := func() (v any) {
			defer func() { v = recover() }()
			feedBatches(c, events(10), size)
			return nil
		}()
		if fired != "boom" {
			t.Fatalf("batches of %d: recovered %v, want boom", size, fired)
		}
		if st.Events != 4 {
			t.Fatalf("batches of %d: forwarded %d events before panic, want 4", size, st.Events)
		}
	}
}

func TestCancelAfterInvokesOnce(t *testing.T) {
	var st trace.Stats
	calls := 0
	c := CancelAfter(&st, 3, func() { calls++ })
	feedBatches(c, events(10), 2)
	if calls != 1 {
		t.Fatalf("cancel invoked %d times, want 1", calls)
	}
	if st.Events != 10 {
		t.Fatalf("forwarded %d events, want all 10 (cancel must not drop events)", st.Events)
	}
}

func TestCorruptIsDeterministicAndDetected(t *testing.T) {
	build := func() *trace.Recording {
		r := trace.NewRecorder()
		r.EventBatch(events(5000))
		rg, err := r.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return rg
	}
	a, b := build(), build()
	offsA := Corrupt(a, 7, 3)
	offsB := Corrupt(b, 7, 3)
	if len(offsA) == 0 {
		t.Fatal("no bytes flipped")
	}
	if len(offsA) != len(offsB) {
		t.Fatalf("same seed flipped %d vs %d bytes", len(offsA), len(offsB))
	}
	for i := range offsA {
		if offsA[i] != offsB[i] {
			t.Fatalf("same seed chose different offsets: %v vs %v", offsA, offsB)
		}
	}
	var ce *trace.CorruptionError
	if err := a.Verify(); !errors.As(err, &ce) {
		t.Fatalf("Verify after Corrupt = %v, want *trace.CorruptionError", err)
	}
}
