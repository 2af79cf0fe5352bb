package core

import (
	"testing"

	"cgp/internal/isa"
	"cgp/internal/prefetch"
)

// Addresses for test functions, line-aligned as real entries are.
// Spaced one line apart so they occupy distinct direct-mapped CGHC
// slots in a 2KB (64-entry) CGHC.
const (
	fnA = isa.Addr(0x400000) // caller
	fnB = isa.Addr(0x400020)
	fnC = isa.Addr(0x400040)
	fnD = isa.Addr(0x400060)
	fnE = isa.Addr(0x400080)
)

// issueSink records every requested line as a one-line request, so
// the tests check the lines a prefetcher asks for, not how it groups
// them.
func issueSink(got *[]prefetch.Request) prefetch.Issue {
	return func(r prefetch.Request) {
		for i := 0; i < r.Lines; i++ {
			*got = append(*got, prefetch.Request{Addr: r.Addr + isa.Addr(i*isa.LineBytes), Lines: 1, Portion: r.Portion})
		}
	}
}

// targets extracts the distinct function starts prefetched (first line
// of each burst).
func targets(reqs []prefetch.Request, lines int) []isa.Addr {
	var out []isa.Addr
	for i := 0; i < len(reqs); i += lines {
		out = append(out, reqs[i].Addr)
	}
	return out
}

// playCall runs both CGHC accesses for "caller calls callee".
func playCall(p *CGP, caller, callee isa.Addr) []prefetch.Request {
	var got []prefetch.Request
	p.OnCall(callee, caller, issueSink(&got))
	return got
}

// playReturn runs both CGHC accesses for "callee returns to caller".
func playReturn(p *CGP, caller, callee isa.Addr) []prefetch.Request {
	var got []prefetch.Request
	p.OnReturn(caller, callee, issueSink(&got))
	return got
}

// TestCGHCWorkedExample replays §3.1's Create_rec scenario: A calls B,
// C, D in sequence; on the next invocation of A the CGHC predicts B at
// the call, C when B returns, and D when C returns.
func TestCGHCWorkedExample(t *testing.T) {
	p := New(Config{Lines: 4, L1Bytes: 2048})

	// First execution of A: nothing predicted, history learned.
	playCall(p, fnA, fnB)
	playReturn(p, fnA, fnB)
	playCall(p, fnA, fnC)
	playReturn(p, fnA, fnC)
	playCall(p, fnA, fnD)
	playReturn(p, fnA, fnD)
	// A returns: its index resets.
	playReturn(p, 0, fnA)

	// Second execution: someone calls A; slot 1 of A's entry (B) is
	// prefetched.
	reqs := playCall(p, fnE, fnA)
	if got := targets(reqs, 4); len(got) != 1 || got[0] != fnB {
		t.Fatalf("call-prefetch on A predicted %v, want [B]", got)
	}
	// B is called, B returns to A: A's index (now 2) selects C.
	playCall(p, fnA, fnB)
	reqs = playReturn(p, fnA, fnB)
	if got := targets(reqs, 4); len(got) == 0 || got[len(got)-1] != fnC {
		t.Fatalf("return-prefetch predicted %v, want C last", got)
	}
	playCall(p, fnA, fnC)
	reqs = playReturn(p, fnA, fnC)
	if got := targets(reqs, 4); got[len(got)-1] != fnD {
		t.Fatalf("return-prefetch predicted %v, want D last", got)
	}
}

func TestCGHCPrefetchesNLines(t *testing.T) {
	p := New(Config{Lines: 3, L1Bytes: 2048})
	playCall(p, fnA, fnB)
	playReturn(p, 0, fnA)
	reqs := playCall(p, fnE, fnA)
	if len(reqs) != 3 {
		t.Fatalf("issued %d lines, want 3", len(reqs))
	}
	for i, r := range reqs {
		if r.Addr != fnB+isa.Addr(i*isa.LineBytes) {
			t.Errorf("line %d addr %#x", i, r.Addr)
		}
		if r.Portion != prefetch.PortionCGHC {
			t.Errorf("line %d portion %v, want CGHC", i, r.Portion)
		}
	}
}

func TestCGHCIndexResetOnReturnUpdate(t *testing.T) {
	p := New(Config{Lines: 4, L1Bytes: 2048})
	playCall(p, fnA, fnB)
	playCall(p, fnA, fnC)
	// A returns: return update resets A's index to 1.
	playReturn(p, fnE, fnA)
	e := p.finite.l1.find(fnA)
	if e == nil {
		t.Fatal("A's entry evicted unexpectedly")
	}
	if e.Index != 1 {
		t.Errorf("index = %d after return, want 1", e.Index)
	}
	if e.Callees[0] != fnB || e.Callees[1] != fnC {
		t.Errorf("callees = %v, want [B C ...]", e.Callees[:2])
	}
}

func TestCGHCOnlyFirstEightCalleesStored(t *testing.T) {
	p := New(Config{Lines: 4, L1Bytes: 2048})
	callees := make([]isa.Addr, 10)
	for i := range callees {
		// Distinct CGHC slots, none colliding with fnA (index 0).
		callees[i] = isa.Addr(0x500020 + i*0x20)
		playCall(p, fnA, callees[i])
	}
	e := p.finite.l1.find(fnA)
	if e == nil {
		t.Fatal("entry missing")
	}
	for i := 0; i < MaxCallees; i++ {
		if e.Callees[i] != callees[i] {
			t.Errorf("slot %d = %#x, want %#x", i, e.Callees[i], callees[i])
		}
	}
	// The 9th and 10th calls must not have overwritten slot 8 (§3.2:
	// only the first 8 functions invoked are stored).
	if e.Callees[MaxCallees-1] != callees[MaxCallees-1] {
		t.Errorf("slot 8 overwritten by later calls")
	}
}

func TestCGHCMissAllocatesInvalid(t *testing.T) {
	p := New(Config{Lines: 4, L1Bytes: 2048})
	// A call-prefetch access misses: the entry is created with index 1
	// and invalid data, and no prefetch is issued.
	var got []prefetch.Request
	p.OnCall(fnB, 0, issueSink(&got)) // caller start 0 (unknown): only the prefetch access runs
	if len(got) != 0 {
		t.Fatalf("prefetch issued on cold CGHC: %v", got)
	}
	e := p.finite.l1.find(fnB)
	if e == nil {
		t.Fatal("entry not allocated on miss")
	}
	if e.Valid {
		t.Error("data entry valid without any call update")
	}
}

func TestCGHCUpdateMissSeedsSlot1(t *testing.T) {
	p := New(Config{Lines: 4, L1Bytes: 2048})
	// The update access for "A calls B" misses on A: slot 1 is set to B.
	playCall(p, fnA, fnB)
	e := p.finite.l1.find(fnA)
	if e == nil || !e.Valid || e.Callees[0] != fnB {
		t.Fatalf("update miss did not seed slot 1: %+v", e)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	// 1KB CGHC = 32 entries. Two functions 32 entries apart collide.
	h := newCGHC(Config{L1Bytes: 1024})
	a := isa.Addr(0x400000)
	b := a + 32*isa.LineBytes
	e1, _ := h.lookup(a)
	e1.Valid = true
	e1.Callees[0] = fnB
	if _, hit := h.lookup(b); hit {
		t.Fatal("conflicting tag reported hit")
	}
	if h.l1.find(a) != nil {
		t.Fatal("original entry should have been displaced")
	}
}

func TestTwoLevelSwap(t *testing.T) {
	h := newCGHC(Config{L1Bytes: 1024, L2Bytes: 32 * 1024})
	a := isa.Addr(0x400000)
	b := a + 32*isa.LineBytes // collides with a in L1 (32 entries)
	ea, _ := h.lookup(a)
	ea.Valid = true
	ea.Callees[0] = fnC
	// b displaces a from L1; a is written back to L2.
	h.lookup(b)
	// a hits again: must come back from L2 with its history intact.
	ea2, hit := h.lookup(a)
	if !hit {
		t.Fatal("entry lost despite two-level CGHC")
	}
	if ea2.Callees[0] != fnC {
		t.Errorf("history lost in swap: %v", ea2.Callees[0])
	}
	if h.stats.LevelTwoHits == 0 {
		t.Error("no L2 hit recorded")
	}
	// And b must now live in L2 (it was displaced by the swap).
	if h.l2.find(b) == nil {
		t.Error("swapped-out entry lost")
	}
}

func TestInfiniteKeepsWholeSequence(t *testing.T) {
	p := New(Config{Lines: 4, Infinite: true})
	for i := 0; i < 20; i++ {
		playCall(p, fnA, isa.Addr(0x500020+i*0x20))
	}
	e := p.infinite.entries[fnA]
	if e == nil {
		t.Fatal("entry missing")
	}
	if len(e.Callees) != 20 {
		t.Errorf("infinite CGHC stored %d callees, want 20", len(e.Callees))
	}
}

func TestInfinitePredictsDeepSequences(t *testing.T) {
	p := New(Config{Lines: 1, Infinite: true})
	callees := make([]isa.Addr, 12)
	for i := range callees {
		callees[i] = isa.Addr(0x500020 + i*0x20)
		playCall(p, fnA, callees[i])
		playReturn(p, fnA, callees[i])
	}
	playReturn(p, 0, fnA) // reset
	// Replay: after the 10th call returns, the 11th is predicted —
	// beyond a finite CGHC's 8 slots.
	playCall(p, fnE, fnA)
	for i := 0; i < 10; i++ {
		playCall(p, fnA, callees[i])
		reqs := playReturn(p, fnA, callees[i])
		want := callees[i+1]
		found := false
		for _, r := range reqs {
			if r.Addr == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("after return %d: %v does not include %#x", i, reqs, want)
		}
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Lines: 0, L1Bytes: 1024},
		{Lines: 4},
		{Lines: 4, L1Bytes: 1000}, // non power-of-two entries
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v: expected panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestCGPInternalNLAttribution(t *testing.T) {
	p := New(Config{Lines: 4, L1Bytes: 2048})
	var got []prefetch.Request
	p.OnFetch(fnA, issueSink(&got))
	if len(got) != 4 {
		t.Fatalf("internal NL issued %d, want 4", len(got))
	}
	for _, r := range got {
		if r.Portion != prefetch.PortionNL {
			t.Errorf("internal NL portion = %v", r.Portion)
		}
	}
}

func TestCGPStatsCounting(t *testing.T) {
	p := New(Config{Lines: 4, L1Bytes: 2048})
	playCall(p, fnA, fnB)
	playReturn(p, fnA, fnB)
	s := p.Stats()
	if s.CallAccesses != 1 || s.ReturnAccesses != 1 {
		t.Errorf("accesses = %d/%d, want 1/1", s.CallAccesses, s.ReturnAccesses)
	}
	if s.History.UpdateMisses == 0 {
		t.Error("no update misses recorded on cold CGHC")
	}
}
