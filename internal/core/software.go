package core

import (
	"cgp/internal/isa"
	"cgp/internal/prefetch"
)

// Software is the all-software variant of CGP the paper sketches in §6:
// instead of a hardware CGHC, a compiler uses call-graph information
// from profile executions to insert prefetch instructions at call sites
// and return points. The prediction table is therefore *static* —
// frozen at "compile time" from the profile — and unbounded (it lives
// in the binary, not in a hardware cache), but it cannot adapt when the
// observed call sequence diverges from the profiled one.
//
// The issue-slot cost of the inserted prefetch instructions is not
// modelled (matching how the paper discusses the variant); the CPU
// counts the inserted prefetches as its CGHC portion, so callers can
// bound it.
type Software struct {
	lines int
	// seq maps a function's start address to its profiled callee
	// sequence (start addresses).
	seq map[isa.Addr][]isa.Addr
	// idx tracks, per function, the next call position — the state the
	// inserted code threads through registers in the real scheme.
	idx map[isa.Addr]int

	nl *prefetch.NL
}

var _ prefetch.Prefetcher = (*Software)(nil)

// NewSoftware builds the software prefetcher from a static call-graph
// table (function start -> profiled callee-start sequence).
func NewSoftware(lines int, seq map[isa.Addr][]isa.Addr) *Software {
	if lines <= 0 {
		panic("core: software CGP lines must be positive")
	}
	return &Software{
		lines: lines,
		seq:   seq,
		idx:   make(map[isa.Addr]int),
		nl:    prefetch.NewNL(lines),
	}
}

// OnFetch implements prefetch.Prefetcher (within-function NL, as in
// hardware CGP).
func (p *Software) OnFetch(line isa.Addr, issue prefetch.Issue) {
	p.nl.OnFetch(line, issue)
}

// Sequential implements prefetch.Sequential with the internal NL's
// run, as CGP does.
func (p *Software) Sequential() (ahead, lines int) { return p.nl.Sequential() }

// OnCall implements prefetch.Prefetcher: the prologue of the callee
// contains an inserted prefetch for its profiled first callee; the call
// site in the caller advances the caller's position.
func (p *Software) OnCall(target, callerStart isa.Addr, issue prefetch.Issue) {
	if seq := p.seq[target]; len(seq) > 0 {
		p.issueFunc(seq[0], issue)
	}
	if callerStart != 0 {
		p.idx[callerStart]++ //cgplint:ignore allocfree position map is bounded by the profiled call graph; it reaches its full size during the first pass over the table
	}
}

// OnReturn implements prefetch.Prefetcher: the instruction after each
// call site prefetches the next profiled callee; the returning
// function's position resets.
func (p *Software) OnReturn(predictedCallerStart, returningStart isa.Addr, issue prefetch.Issue) {
	if predictedCallerStart != 0 {
		i := p.idx[predictedCallerStart]
		if seq := p.seq[predictedCallerStart]; i < len(seq) {
			p.issueFunc(seq[i], issue)
		}
	}
	if returningStart != 0 {
		p.idx[returningStart] = 0 //cgplint:ignore allocfree position map is bounded by the profiled call graph; it reaches its full size during the first pass over the table
	}
}

func (p *Software) issueFunc(fn isa.Addr, issue prefetch.Issue) {
	issue(prefetch.Request{Addr: isa.LineAddr(fn), Lines: p.lines, Portion: prefetch.PortionCGHC})
}
