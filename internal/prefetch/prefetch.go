// Package prefetch defines the instruction-prefetcher interface the CPU
// front end drives, plus the sequential prefetcher the paper compares
// against: next-N-line (NL, Smith & Hsu), which with a start offset is
// also the run-ahead NL variant of §5.6. The paper's own contribution,
// Call Graph Prefetching, lives in internal/core and implements the
// same interface.
package prefetch

import "cgp/internal/isa"

// Portion attributes a prefetch request to the component that issued it,
// so Figure 9's NL-portion vs CGHC-portion split can be reproduced.
type Portion uint8

const (
	// PortionNL marks prefetches issued by a next-N-line component.
	PortionNL Portion = iota
	// PortionCGHC marks prefetches issued by the call-graph history cache.
	PortionCGHC
)

// String returns the portion name. It doubles as the stable key
// suffix for per-portion observability counters
// (sim_prefetch_issued_nl, sim_prefetch_useful_cghc, ...), so renaming
// a portion is a metrics-schema change, not a cosmetic one.
func (p Portion) String() string {
	if p == PortionCGHC {
		return "cghc"
	}
	return "nl"
}

// Portions lists every portion in stable declaration order, for
// callers that emit per-portion metrics or table columns.
func Portions() []Portion { return []Portion{PortionNL, PortionCGHC} }

// Request is a prefetch of a run of consecutive cache lines: Lines
// lines (at least one) starting at the line-aligned address Addr, all
// on behalf of one component. A prefetcher asks for the lines it wants
// at one decision point (the next N lines after a fetch, the first N
// lines of a predicted function) as one run.
type Request struct {
	Addr    isa.Addr
	Lines   int
	Portion Portion
}

// Issue is the sink prefetchers push requests into. The memory system
// behind it resolves a run line by line in ascending address order,
// squashing each line already resident or in flight and counting every
// line as one squashed or issued prefetch. The type is a hot func type:
// prefetchers call it from the simulator's per-event loop, so allocfree
// verifies each binding.
//
//cgplint:hotpath
type Issue func(Request)

// Prefetcher is driven by the CPU front end.
//
// OnFetch is called with the line address of a demand fetch. The CPU
// calls it only for a fetch whose line differs from the line of the
// detailed fetch before it, the only fetches a next-N-line trigger acts
// on; the reference model in internal/refsim calls it for every fetched
// line. An implementation must therefore ignore a repeat of the line it
// saw last. OnCall and OnReturn are called when the branch predictor
// resolves a call or return; sequential prefetchers ignore them. The
// three event hooks are hot interface methods: they run inside the
// simulator's per-event loop, so allocfree verifies every
// implementation.
type Prefetcher interface {
	//cgplint:hotpath
	OnFetch(line isa.Addr, issue Issue)
	//cgplint:hotpath
	OnCall(target, callerStart isa.Addr, issue Issue)
	//cgplint:hotpath
	OnReturn(predictedCallerStart, returningStart isa.Addr, issue Issue)
}

// Sequential is implemented by a prefetcher whose OnFetch is exactly
// next-N-line prefetching: on a line other than the one it saw last it
// requests one run of lines lines for its NL portion, starting ahead
// lines past the fetched line, and it does nothing else. A CPU that
// finds the declaration issues that run itself and never calls
// OnFetch, so the run costs no interface call and no trigger check.
type Sequential interface {
	Sequential() (ahead, lines int)
}

// None is the null prefetcher (the O5 and O5+OM baselines).
type None struct{}

// OnFetch implements Prefetcher.
func (None) OnFetch(isa.Addr, Issue) {}

// OnCall implements Prefetcher.
func (None) OnCall(isa.Addr, isa.Addr, Issue) {}

// OnReturn implements Prefetcher.
func (None) OnReturn(isa.Addr, isa.Addr, Issue) {}

// NL is next-N-line prefetching: when the CPU fetches a line, the next N
// sequential lines are prefetched unless already present (§2). The
// run-ahead variant starts the N lines further ahead.
type NL struct {
	// N is the number of sequential lines to prefetch.
	N int
	// ahead is how many lines past the fetched line the run starts: 1
	// for NL, M for run-ahead NL.
	ahead int
	// lastTrigger suppresses re-issuing the same window while fetch
	// stays within one line.
	lastTrigger isa.Addr
	haveTrigger bool
}

// NewNL returns a next-N-line prefetcher.
func NewNL(n int) *NL { return NewRunAheadNL(n, 1) }

// NewRunAheadNL returns the modified NL scheme of §5.6: instead of the
// next N lines, it prefetches N lines beginning M lines after the
// current fetch. The paper found it performs much worse than NL on DB
// workloads; it is included as the ablation.
func NewRunAheadNL(n, m int) *NL {
	if n <= 0 || m <= 0 {
		panic("prefetch: NL degrees must be positive")
	}
	return &NL{N: n, ahead: m}
}

// OnFetch implements Prefetcher.
func (p *NL) OnFetch(line isa.Addr, issue Issue) {
	line = isa.LineAddr(line)
	if p.haveTrigger && p.lastTrigger == line {
		return
	}
	p.haveTrigger = true
	p.lastTrigger = line
	issue(Request{Addr: line + isa.Addr(p.ahead*isa.LineBytes), Lines: p.N, Portion: PortionNL})
}

// Sequential implements Sequential: N lines from the start offset on.
func (p *NL) Sequential() (ahead, lines int) { return p.ahead, p.N }

// OnCall implements Prefetcher.
func (p *NL) OnCall(isa.Addr, isa.Addr, Issue) {}

// OnReturn implements Prefetcher.
func (p *NL) OnReturn(isa.Addr, isa.Addr, Issue) {}
