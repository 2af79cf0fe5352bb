package trace

import (
	"reflect"
	"testing"

	"cgp/internal/program"
)

func TestSequenceProfileModal(t *testing.T) {
	p := NewSequenceProfile(8)
	// fn 1: slot 0 mostly calls 2, slot 1 always calls 3.
	p.Record(1, 0, 2)
	p.Record(1, 0, 2)
	p.Record(1, 0, 9)
	p.Record(1, 1, 3)
	if got := p.Sequence(1); !reflect.DeepEqual(got, []program.FuncID{2, 3}) {
		t.Errorf("sequence = %v", got)
	}
	if p.Len() != 1 {
		t.Errorf("len = %d", p.Len())
	}
}

func TestSequenceProfileSlotCap(t *testing.T) {
	p := NewSequenceProfile(2)
	p.Record(1, 0, 2)
	p.Record(1, 1, 3)
	p.Record(1, 2, 4) // dropped
	if got := p.Sequence(1); len(got) != 2 {
		t.Errorf("sequence = %v, want 2 slots", got)
	}
}

func TestSequenceCollectorTracksPositions(t *testing.T) {
	c := NewSequenceCollector(8)
	call := func(fn, caller program.FuncID) {
		c.EventBatch([]Event{Event{Kind: KindCall, Fn: fn, Caller: caller}})
	}
	ret := func(fn program.FuncID) {
		c.EventBatch([]Event{Event{Kind: KindReturn, Fn: fn}})
	}
	// main(0) calls a(1), a calls x(5), a returns, main calls b(2).
	call(0, program.NoFunc)
	call(1, 0)
	call(5, 1)
	ret(5)
	ret(1)
	call(2, 0)
	ret(2)
	ret(0)
	if got := c.Profile.Sequence(0); !reflect.DeepEqual(got, []program.FuncID{1, 2}) {
		t.Errorf("main sequence = %v", got)
	}
	if got := c.Profile.Sequence(1); !reflect.DeepEqual(got, []program.FuncID{5}) {
		t.Errorf("a sequence = %v", got)
	}
}

func TestSequenceCollectorPerThread(t *testing.T) {
	c := NewSequenceCollector(8)
	// Thread 0: fn 10 calls 11. Switch. Thread 1: fn 20 calls 21.
	c.EventBatch([]Event{Event{Kind: KindCall, Fn: 10, Caller: program.NoFunc}})
	c.EventBatch([]Event{Event{Kind: KindSwitch, N: 1}})
	c.EventBatch([]Event{Event{Kind: KindCall, Fn: 20, Caller: program.NoFunc}})
	c.EventBatch([]Event{Event{Kind: KindCall, Fn: 21, Caller: 20}})
	c.EventBatch([]Event{Event{Kind: KindSwitch, N: 0}})
	c.EventBatch([]Event{Event{Kind: KindCall, Fn: 11, Caller: 10}})
	// 11 must be recorded as 10's first call, NOT as 21's sibling.
	if got := c.Profile.Sequence(10); !reflect.DeepEqual(got, []program.FuncID{11}) {
		t.Errorf("thread-0 sequence = %v", got)
	}
	if got := c.Profile.Sequence(20); !reflect.DeepEqual(got, []program.FuncID{21}) {
		t.Errorf("thread-1 sequence = %v", got)
	}
}

func TestSequenceCollectorOnRealTrace(t *testing.T) {
	img, ids := testImage()
	c := NewSequenceCollector(8)
	traced(img, c, 7, ids)
	// "create" always calls find then lock (helpers absent in this
	// registry).
	got := c.Profile.Sequence(ids["create"])
	want := []program.FuncID{ids["find"], ids["lock"]}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("create sequence = %v, want %v", got, want)
	}
}
