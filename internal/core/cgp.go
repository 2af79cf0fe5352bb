package core

import (
	"cgp/internal/isa"
	"cgp/internal/prefetch"
)

// Config selects a CGHC organization for CGP (Figure 5's design space).
type Config struct {
	// Lines is N in CGP_N: how many cache lines of a predicted function
	// are prefetched per CGHC hit (§3.2; the paper evaluates 2 and 4).
	Lines int
	// L1Bytes is the first-level CGHC data-array size. It must be set
	// unless Infinite is.
	L1Bytes int
	// L2Bytes, if nonzero, adds a second-level CGHC.
	L2Bytes int
	// Infinite selects the unbounded CGHC (every function keeps its
	// entire most-recent call sequence).
	Infinite bool
	// Ways selects CGHC set-associativity for the ablation study
	// (0 or 1 = direct-mapped, the paper's design).
	Ways int
	// Slots caps the callees recorded per entry for the ablation study
	// (0 = MaxCallees, the paper's 8).
	Slots int
}

// DefaultConfig is the configuration the paper settles on: CGP_4 with a
// 2KB+32KB two-level CGHC.
func DefaultConfig() Config {
	return Config{Lines: 4, L1Bytes: 2 * 1024, L2Bytes: 32 * 1024}
}

// Stats aggregates CGP-level counters.
type Stats struct {
	History HistoryStats
	// CGHCPrefetches counts line prefetches issued by the CGHC portion.
	CGHCPrefetches int64
	// CallAccesses / ReturnAccesses count prefetch-access lookups.
	CallAccesses   int64
	ReturnAccesses int64
}

// CGP is the call-graph prefetcher (§3.2): a CGHC that predicts the next
// function to execute at every call and return, plus an internal
// next-N-line prefetcher for intra-function lines.
type CGP struct {
	cfg   Config
	slots int

	finite   *cghc     // nil for the unbounded CGHC
	infinite *Infinite // nil for a finite CGHC

	nl *prefetch.NL

	cghcPrefetches int64
	callAccesses   int64
	returnAccesses int64
}

var _ prefetch.Prefetcher = (*CGP)(nil)

// New builds a CGP prefetcher from cfg.
func New(cfg Config) *CGP {
	if cfg.Lines <= 0 {
		panic("core: CGP Lines must be positive")
	}
	slots := cfg.Slots
	if slots <= 0 || slots > MaxCallees {
		slots = MaxCallees
	}
	p := &CGP{cfg: cfg, slots: slots, nl: prefetch.NewNL(cfg.Lines)}
	if cfg.Infinite {
		p.infinite = NewInfinite()
	} else {
		p.finite = newCGHC(cfg)
	}
	return p
}

// Stats returns a snapshot of the prefetcher's counters.
func (p *CGP) Stats() Stats {
	var hs HistoryStats
	if p.infinite != nil {
		hs = p.infinite.stats
	} else {
		hs = p.finite.stats
	}
	return Stats{
		History:        hs,
		CGHCPrefetches: p.cghcPrefetches,
		CallAccesses:   p.callAccesses,
		ReturnAccesses: p.returnAccesses,
	}
}

// OnFetch implements prefetch.Prefetcher: within a function body CGP
// relies on plain next-N-line prefetching (§3.2). Lines of the run the
// CGHC already brought in, or that are otherwise resident or in flight,
// are squashed one by one downstream by the memory system.
func (p *CGP) OnFetch(line isa.Addr, issue prefetch.Issue) {
	p.nl.OnFetch(line, issue)
}

// Sequential implements prefetch.Sequential with the internal NL's
// run, so the CPU issues it without calling OnFetch.
func (p *CGP) Sequential() (ahead, lines int) { return p.nl.Sequential() }

// OnCall implements prefetch.Prefetcher. Both CGHC accesses for a call
// instruction happen here: the prefetch access keyed by the predicted
// call target, then the update access keyed by the caller.
func (p *CGP) OnCall(target, callerStart isa.Addr, issue prefetch.Issue) {
	p.callAccesses++
	// First access (call prefetch): the index value of a function being
	// called should be 1, so on a tag hit the first callee in the data
	// entry is prefetched.
	if next, ok := p.callPrefetchLookup(target); ok {
		p.issueFunc(next, issue)
	}
	// Second access (call update): record target in the caller's entry
	// at its index, then advance the index.
	if callerStart != 0 {
		p.callUpdate(callerStart, target)
	}
}

// OnReturn implements prefetch.Prefetcher. predictedCallerStart comes
// from the modified RAS (the hardware cannot compute the caller's start
// address from the return target alone, §3.2); returningStart is the
// start address of the function executing the return.
func (p *CGP) OnReturn(predictedCallerStart, returningStart isa.Addr, issue prefetch.Issue) {
	p.returnAccesses++
	// First access (return prefetch): the caller's index selects the
	// next function it is predicted to call.
	if predictedCallerStart != 0 {
		if next, ok := p.returnPrefetchLookup(predictedCallerStart); ok {
			p.issueFunc(next, issue)
		}
	}
	// Second access (return update): the returning function's index is
	// reset to 1.
	if returningStart != 0 {
		p.returnUpdate(returningStart)
	}
}

// issueFunc prefetches the first cfg.Lines lines of the function at fn
// as one run.
func (p *CGP) issueFunc(fn isa.Addr, issue prefetch.Issue) {
	p.cghcPrefetches += int64(p.cfg.Lines)
	issue(prefetch.Request{Addr: isa.LineAddr(fn), Lines: p.cfg.Lines, Portion: prefetch.PortionCGHC})
}

func (p *CGP) callPrefetchLookup(target isa.Addr) (isa.Addr, bool) {
	if p.infinite != nil {
		return p.infinite.callPrefetch(target)
	}
	e, hit := p.finite.lookup(target)
	countPrefetch(hit, &p.finite.stats)
	if hit && e.Valid && e.Callees[0] != 0 {
		return e.Callees[0], true
	}
	return 0, false
}

func (p *CGP) callUpdate(caller, target isa.Addr) {
	if p.infinite != nil {
		p.infinite.callUpdate(caller, target)
		return
	}
	e, hit := p.finite.lookup(caller)
	countUpdate(hit, &p.finite.stats)
	e.Valid = true
	if e.Index <= p.slots {
		e.Callees[e.Index-1] = target
		// The index saturates one past the last slot so that only the
		// first Slots calls of an invocation are recorded (§3.2).
		e.Index++
	}
}

func (p *CGP) returnPrefetchLookup(callerStart isa.Addr) (isa.Addr, bool) {
	if p.infinite != nil {
		return p.infinite.returnPrefetch(callerStart)
	}
	e, hit := p.finite.lookup(callerStart)
	countPrefetch(hit, &p.finite.stats)
	if hit && e.Valid && e.Index <= p.slots && e.Callees[e.Index-1] != 0 {
		return e.Callees[e.Index-1], true
	}
	return 0, false
}

func (p *CGP) returnUpdate(returning isa.Addr) {
	if p.infinite != nil {
		p.infinite.returnUpdate(returning)
		return
	}
	e, hit := p.finite.lookup(returning)
	countUpdate(hit, &p.finite.stats)
	e.Index = 1
}
