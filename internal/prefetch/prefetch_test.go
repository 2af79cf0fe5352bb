package prefetch

import (
	"testing"

	"cgp/internal/isa"
)

// collect records every requested line as a one-line request, so the
// tests check the lines a prefetcher asks for, not how it groups them.
func collect(reqs *[]Request) Issue {
	return func(r Request) {
		for i := 0; i < r.Lines; i++ {
			*reqs = append(*reqs, Request{Addr: r.Addr + isa.Addr(i*isa.LineBytes), Lines: 1, Portion: r.Portion})
		}
	}
}

func TestNLIssuesNextNLines(t *testing.T) {
	p := NewNL(4)
	var reqs []Request
	p.OnFetch(0x400000, collect(&reqs))
	if len(reqs) != 4 {
		t.Fatalf("issued %d requests, want 4", len(reqs))
	}
	for i, r := range reqs {
		want := isa.Addr(0x400000 + (i+1)*isa.LineBytes)
		if r.Addr != want {
			t.Errorf("req %d addr %#x, want %#x", i, r.Addr, want)
		}
		if r.Portion != PortionNL {
			t.Errorf("req %d portion %v, want NL", i, r.Portion)
		}
	}
}

func TestNLSuppressesRepeatTrigger(t *testing.T) {
	p := NewNL(2)
	var reqs []Request
	p.OnFetch(0x400000, collect(&reqs))
	p.OnFetch(0x400010, collect(&reqs)) // same line
	if len(reqs) != 2 {
		t.Fatalf("issued %d requests, want 2 (same-line re-trigger)", len(reqs))
	}
	p.OnFetch(0x400020, collect(&reqs)) // next line
	if len(reqs) != 4 {
		t.Fatalf("issued %d requests, want 4 after new line", len(reqs))
	}
}

func TestNLIgnoresCallsAndReturns(t *testing.T) {
	p := NewNL(2)
	var reqs []Request
	p.OnCall(0x400000, 0x500000, collect(&reqs))
	p.OnReturn(0x400000, 0x500000, collect(&reqs))
	if len(reqs) != 0 {
		t.Errorf("NL issued %d requests on call/return", len(reqs))
	}
}

func TestRunAheadNLOffsets(t *testing.T) {
	p := NewRunAheadNL(2, 4)
	var reqs []Request
	p.OnFetch(0x400000, collect(&reqs))
	if len(reqs) != 2 {
		t.Fatalf("issued %d, want 2", len(reqs))
	}
	if reqs[0].Addr != 0x400000+4*isa.LineBytes {
		t.Errorf("first run-ahead addr %#x, want M=4 lines ahead", reqs[0].Addr)
	}
	if reqs[1].Addr != 0x400000+5*isa.LineBytes {
		t.Errorf("second run-ahead addr %#x", reqs[1].Addr)
	}
	if ahead, lines := p.Sequential(); ahead != 4 || lines != 2 {
		t.Errorf("declared run (%d, %d), want (4, 2)", ahead, lines)
	}
}

func TestBadDegreesPanic(t *testing.T) {
	for _, fn := range []func(){
		func() { NewNL(0) },
		func() { NewRunAheadNL(0, 1) },
		func() { NewRunAheadNL(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
