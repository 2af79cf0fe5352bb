package core

import (
	"testing"

	"cgp/internal/isa"
	"cgp/internal/prefetch"
)

func swTable() map[isa.Addr][]isa.Addr {
	return map[isa.Addr][]isa.Addr{
		fnA: {fnB, fnC, fnD},
		fnB: {fnE},
	}
}

func TestSoftwarePredictsFromStaticTable(t *testing.T) {
	p := NewSoftware(4, swTable())
	// Calling A prefetches A's profiled first callee B.
	var got []prefetch.Request
	p.OnCall(fnA, fnE, issueSink(&got))
	if len(got) != 4 || got[0].Addr != fnB {
		t.Fatalf("call-prefetch = %v", got)
	}
	if got[0].Portion != prefetch.PortionCGHC {
		t.Errorf("portion = %v", got[0].Portion)
	}
	// B is called (A's index advances), then returns: A's position 1
	// predicts C.
	p.OnCall(fnB, fnA, func(prefetch.Request) {})
	got = nil
	p.OnReturn(fnA, fnB, issueSink(&got))
	if len(got) == 0 || got[len(got)-4].Addr != fnC {
		t.Fatalf("return-prefetch = %v, want C", got)
	}
}

func TestSoftwareIndexResets(t *testing.T) {
	p := NewSoftware(1, swTable())
	sink := func(prefetch.Request) {}
	p.OnCall(fnB, fnA, sink)
	p.OnCall(fnC, fnA, sink)
	// A returns: its position resets, so the next invocation predicts B
	// again at position 0.
	p.OnReturn(0, fnA, sink)
	var got []prefetch.Request
	p.OnCall(fnB, fnA, issueSink(&got))
	p.OnReturn(fnA, fnB, issueSink(&got))
	// After the first call post-reset, position 1 predicts C.
	found := false
	for _, r := range got {
		if r.Addr == fnC {
			found = true
		}
	}
	if !found {
		t.Errorf("post-reset prediction missing C: %v", got)
	}
}

func TestSoftwareUnknownFunctionSilent(t *testing.T) {
	p := NewSoftware(4, swTable())
	n := 0
	p.OnCall(fnD, fnE, func(r prefetch.Request) { n += r.Lines }) // D has no profile
	if n != 0 {
		t.Errorf("issued %d prefetches for unprofiled function", n)
	}
}

func TestSoftwareStaticTableNeverLearns(t *testing.T) {
	p := NewSoftware(1, swTable())
	sink := func(prefetch.Request) {}
	// Run a divergent sequence through it repeatedly: A calls E (not in
	// the profile).
	for i := 0; i < 5; i++ {
		p.OnCall(fnE, fnA, sink)
		p.OnReturn(fnA, fnE, sink)
		p.OnReturn(0, fnA, sink)
	}
	// Predictions still come from the static table: calling A still
	// prefetches B.
	var got []prefetch.Request
	p.OnCall(fnA, 0, issueSink(&got))
	if len(got) != 1 || got[0].Addr != fnB {
		t.Errorf("static table mutated: %v", got)
	}
}

func TestSoftwareNLWithinFunction(t *testing.T) {
	p := NewSoftware(2, swTable())
	var got []prefetch.Request
	p.OnFetch(fnA, issueSink(&got))
	if len(got) != 2 || got[0].Portion != prefetch.PortionNL {
		t.Errorf("NL component = %v", got)
	}
}

func TestSoftwareCounters(t *testing.T) {
	p := NewSoftware(4, swTable())
	inserted := 0
	p.OnCall(fnA, 0, func(r prefetch.Request) { inserted += r.Lines })
	if inserted != 4 {
		t.Errorf("inserted = %d", inserted)
	}
}

func TestAssocCGHCRetainsConflictingTags(t *testing.T) {
	// Two functions that collide in a direct-mapped 1KB CGHC coexist in
	// a 2-way one.
	a := isa.Addr(0x400000)
	b := a + 16*isa.LineBytes // same set in a 2-way 1KB CGHC (16 sets)
	h := newCGHC(Config{L1Bytes: 1024, Ways: 2})
	ea, _ := h.lookup(a)
	ea.Valid = true
	h.lookup(b)
	if h.l1.find(a) == nil {
		t.Error("2-way CGHC evicted a non-conflicting tag")
	}
	// That find refreshed a, so b is now the LRU way: a third tag in
	// the set evicts b.
	c := a + 32*isa.LineBytes
	h.lookup(c)
	if h.l1.find(b) != nil {
		t.Error("LRU way survived a third conflicting tag")
	}
	if h.l1.find(a) == nil {
		t.Error("MRU way was evicted")
	}
}

func TestSlotsCapRestrictsHistory(t *testing.T) {
	p := New(Config{Lines: 1, L1Bytes: 2048, Slots: 2})
	sink := func(prefetch.Request) {}
	p.OnCall(fnB, fnA, sink)
	p.OnCall(fnC, fnA, sink)
	p.OnCall(fnD, fnA, sink) // beyond the 2-slot cap: dropped
	e := p.finite.l1.find(fnA)
	if e == nil {
		t.Fatal("entry missing")
	}
	if e.Callees[0] != fnB || e.Callees[1] != fnC {
		t.Errorf("slots = %v", e.Callees[:3])
	}
	if e.Callees[2] != 0 {
		t.Errorf("third callee recorded despite Slots=2: %#x", e.Callees[2])
	}
}
