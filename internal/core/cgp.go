package core

import (
	"fmt"

	"cgp/internal/isa"
	"cgp/internal/prefetch"
)

// Config selects a CGHC organization for CGP (Figure 5's design space).
type Config struct {
	// Lines is N in CGP_N: how many cache lines of a predicted function
	// are prefetched per CGHC hit (§3.2; the paper evaluates 2 and 4).
	Lines int
	// L1Bytes is the first-level CGHC data-array size. Zero with
	// Infinite=false and L2Bytes=0 is invalid.
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

// Describe returns e.g. "cgp_4/CGHC-2K+32K".
func (c Config) Describe() string {
	d := fmt.Sprintf("cgp_%d/%s", c.Lines, c.describeHistory())
	if c.Slots > 0 && c.Slots != MaxCallees {
		d += fmt.Sprintf("/slots%d", c.Slots)
	}
	return d
}

func (c Config) describeHistory() string {
	way := ""
	if c.Ways > 1 {
		way = fmt.Sprintf("-%dway", c.Ways)
	}
	switch {
	case c.Infinite:
		return "CGHC-Inf"
	case c.L2Bytes > 0:
		return fmt.Sprintf("CGHC-%dK+%dK%s", c.L1Bytes/1024, c.L2Bytes/1024, way)
	default:
		return fmt.Sprintf("CGHC-%dK%s", c.L1Bytes/1024, way)
	}
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

	finite   History
	infinite *Infinite

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
	ways := cfg.Ways
	if ways <= 0 {
		ways = 1
	}
	switch {
	case cfg.Infinite:
		p.infinite = NewInfinite()
	case cfg.L2Bytes > 0:
		p.finite = NewTwoLevelAssoc(cfg.L1Bytes, cfg.L2Bytes, ways)
	case cfg.L1Bytes > 0:
		p.finite = NewOneLevelAssoc(cfg.L1Bytes, ways)
	default:
		panic("core: CGP config selects no CGHC")
	}
	return p
}

// Name implements prefetch.Prefetcher.
func (p *CGP) Name() string { return p.cfg.Describe() }

// Config returns the configuration.
func (p *CGP) Config() Config { return p.cfg }

// Stats returns a snapshot of the prefetcher's counters.
func (p *CGP) Stats() Stats {
	var hs HistoryStats
	if p.infinite != nil {
		hs = p.infinite.Stats()
	} else {
		hs = p.finite.Stats()
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
	e, hit := p.lookupFinite(target)
	p.countPrefetchAccessFinite(hit)
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
	e, hit := p.lookupFinite(caller)
	p.countUpdateAccessFinite(hit)
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
	e, hit := p.lookupFinite(callerStart)
	p.countPrefetchAccessFinite(hit)
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
	e, hit := p.lookupFinite(returning)
	p.countUpdateAccessFinite(hit)
	e.Index = 1
}

func (p *CGP) lookupFinite(fn isa.Addr) (*Entry, bool) {
	return p.finite.Lookup(fn, true)
}

func (p *CGP) countPrefetchAccessFinite(hit bool) {
	switch h := p.finite.(type) {
	case *OneLevel:
		countPrefetch(hit, &h.stats)
	case *TwoLevel:
		countPrefetch(hit, &h.stats)
	}
}

func (p *CGP) countUpdateAccessFinite(hit bool) {
	switch h := p.finite.(type) {
	case *OneLevel:
		countUpdate(hit, &h.stats)
	case *TwoLevel:
		countUpdate(hit, &h.stats)
	}
}
