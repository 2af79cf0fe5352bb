package cpu

import (
	"math/bits"

	"cgp/internal/branch"
	"cgp/internal/cache"
	"cgp/internal/isa"
	"cgp/internal/trace"
	"cgp/internal/units"
)

// FrontendKey returns c without the switches only the back end reads.
// CPUs whose configs have equal keys can be fed by one Frontend.
func (c Config) FrontendKey() Config {
	c.PerfectICache, c.DemandPriority, c.PrefetchIntoL2Only = false, false, false
	return c
}

// Frontend is the half of the CPU no prefetcher can change: event
// dispatch, line expansion, fetch throughput, the two-level branch
// predictor, the RAS and the L1D. Decode resolves an event batch into
// ops once, and each CPU it feeds runs them through its back end. A
// CPU built by New has a Frontend of its own; the cells of a pass share
// one (CPU.UseFrontend).
type Frontend struct {
	cfg Config

	l1d *cache.Cache[dataMeta]
	bp  *branch.Predictor
	ras *branch.RAS

	instrCarry units.Instrs
	// fetchShift is log2(FetchWidth) when the width is a power of two
	// (-1 otherwise), so throughput's div/mod reduces to a shift and
	// mask.
	fetchShift int

	// sampling mirrors its CPUs' EnableSampling. In a functional-warming
	// span it accrues no cycles and leaves the fetch carry alone.
	sampling   bool
	functional bool

	// lastFetch is the line of the last timed fetch op, which marks the
	// next one new or not. Before the first it is all ones, which is not
	// line-aligned, so no fetch line equals it.
	lastFetch isa.Addr

	// The batch last decoded: ops[:n], the cycles accrued after its
	// last op, and its event count.
	ops    []op
	n      int
	tail   units.Cycles
	events int

	// The counters CPU.Finish takes from the front end.
	instructions    units.Instrs
	loopBranches    int64 // loop events carry their own branch accounting
	loopMispredicts int64
	calls           int64
	switches        int64
	dLineAccesses   int64
	dCacheMisses    int64
}

// dataMeta is the per-L1D-line state.
type dataMeta struct {
	dirty bool
}

// opKind discriminates ops.
type opKind uint8

const (
	opFetch    opKind = iota // demand fetch of the line at addr
	opCall                   // call to the function at addr; an opArg with the caller follows
	opReturn                 // return from the function at addr; opArgs with the caller and the RAS's guess follow
	opDataMiss               // L1D miss on the line at addr
	opSwitch                 // context switch
	opQueryTag               // the query whose trace ID is addr begins
	opCycles                 // maxDelta cycles more than the next op carries
	opArg                    // an argument of the op before it, in addr
)

// op is one step of a decoded batch for a CPU's back end, 16 bytes, so
// a batch's ops stay in the host's caches while every cell of a pass
// walks them. delta is the cycles no prefetcher can change (fetch
// throughput, branch bubbles and mispredicts, switch penalties)
// accrued since the previous op, this op's own included: the back end
// adds it before it handles the op, so every read of the cycle count
// sees what the event-by-event model saw. A return's second argument is
// the caller start the RAS predicted (0 when it was empty), which CGP
// looks up; its first is the trace's caller, which attribution follows.
// A data miss's dirty says its fill evicted a dirty line, whose
// writeback takes the bus. A timed fetch's newLine says its line
// differs from the previous timed fetch's: the back end runs the
// prefetcher's fetch hook on those only, the fetches a next-N-line
// trigger acts on. Untimed fetches, in functional-warming spans, run
// no fetch hook, so they neither carry the mark nor move it.
type op struct {
	addr    isa.Addr
	delta   uint32
	kind    opKind
	dirty   bool
	newLine bool
}

// maxDelta is the most cycles one op carries.
const maxDelta = 1<<32 - 1

// NewFrontend builds a front end for CPUs of config cfg.
func NewFrontend(cfg Config) *Frontend {
	f := &Frontend{
		cfg:        cfg.FrontendKey(),
		l1d:        cache.New[dataMeta](cfg.L1D),
		bp:         branch.NewPredictor(cfg.BranchEntries),
		ras:        branch.NewRAS(cfg.RASDepth),
		fetchShift: -1,
		lastFetch:  ^isa.Addr(0),
	}
	if w := cfg.FetchWidth; w > 0 && w&(w-1) == 0 {
		f.fetchShift = bits.TrailingZeros(uint(w))
	}
	return f
}

// EnableSampling makes the front end follow sampling spans, as
// CPU.EnableSampling does for a CPU.
func (f *Frontend) EnableSampling() { f.sampling = true }

// BeginSpan follows a sampled replay into a span of the given kind.
func (f *Frontend) BeginSpan(kind trace.SpanKind) {
	if f.sampling {
		f.functional = kind == trace.SpanFunctionalWarm
	}
}

// SkipSpan folds in a skipped span's exact instruction count. The CPUs
// it feeds see the skip first, so their open windows close on the count
// before it.
func (f *Frontend) SkipSpan(instrs units.Instrs) {
	f.instructions += instrs
	f.functional = false
}

// Decode resolves one event batch into ops: a fetch op per line a run
// or loop body covers, and one op per call, return, L1D miss, context
// switch and query tag. Branches and L1D hits leave only cycles, which
// the next op or tail carries.
//
//cgplint:hotpath
func (f *Frontend) Decode(evs []trace.Event) {
	f.n, f.events = 0, len(evs)
	timed := !f.functional
	cfg := &f.cfg
	var d units.Cycles
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case trace.KindRun:
			if ev.N <= 0 {
				continue
			}
			f.instructions += units.Instrs(ev.N)
			if timed {
				d += f.throughput(units.Instrs(ev.N))
			}
			d = f.fetch(ev.Addr, int(ev.N), d, timed)
		case trace.KindLoop:
			// The body is fetched once and run Iters times: one fetch
			// redirect per back edge, and the predictor, locked onto the
			// loop after warmup, mispredicts the exit.
			if ev.N <= 0 || ev.Iters <= 0 {
				continue
			}
			n := units.Instrs(int64(ev.N) * int64(ev.Iters))
			f.instructions += n
			f.loopBranches += int64(ev.Iters)
			f.loopMispredicts++
			if timed {
				d += f.throughput(n) + units.Cycles(ev.Iters)*cfg.TakenBranchBubble + cfg.MispredictPenalty
			}
			d = f.fetch(ev.Addr, int(ev.N), d, timed)
		case trace.KindBranch:
			correct := f.bp.Predict(ev.Addr, ev.Taken)
			if timed && !correct {
				d += cfg.MispredictPenalty
			}
			if timed && ev.Taken {
				d += cfg.TakenBranchBubble
			}
		case trace.KindCall:
			f.calls++
			f.ras.Push(branch.RASEntry{ReturnAddr: ev.Addr + isa.InstrBytes, CallerStart: ev.CallerStart})
			if timed {
				d += cfg.TakenBranchBubble
			}
			d = f.emit(op{kind: opCall, addr: ev.Target}, d)
			f.push(op{kind: opArg, addr: ev.CallerStart})
		case trace.KindReturn:
			pred, ok := f.ras.Pop()
			correct := f.ras.RecordOutcome(pred, ok, ev.Target)
			if timed && !correct {
				d += cfg.MispredictPenalty
			}
			if timed {
				d += cfg.TakenBranchBubble
			}
			d = f.emit(op{kind: opReturn, addr: ev.Addr}, d)
			f.push(op{kind: opArg, addr: ev.CallerStart})
			f.push(op{kind: opArg, addr: pred.CallerStart})
		case trace.KindData:
			d = f.data(ev, d)
		case trace.KindSwitch:
			f.switches++
			if timed {
				d += cfg.SwitchPenalty
			}
			if cfg.FlushRASOnSwitch {
				f.ras.Flush()
			}
			d = f.emit(op{kind: opSwitch}, d)
		case trace.KindQueryTag:
			d = f.emit(op{kind: opQueryTag, addr: ev.Addr}, d)
		}
	}
	f.tail = d
}

// throughput charges fetch/issue bandwidth for n instructions. The
// fetch width is the instrs-per-cycle ratio that crosses instruction
// counts into cycles, hence the explicit int64 step. The carry is never
// negative, so the power-of-two shift/mask equals the div/mod exactly.
func (f *Frontend) throughput(n units.Instrs) units.Cycles {
	f.instrCarry += n
	if s := f.fetchShift; s >= 0 {
		c := units.Cycles(int64(f.instrCarry) >> s)
		f.instrCarry &= units.Instrs(int64(1)<<s - 1)
		return c
	}
	c := units.Cycles(int64(f.instrCarry) / int64(f.cfg.FetchWidth))
	f.instrCarry %= units.Instrs(f.cfg.FetchWidth)
	return c
}

// fetch emits a fetch op, the first carrying d, for each line n > 0
// instructions at addr cover, and returns the cycles still to carry.
// Every timed op but the first is marked new; the first is new unless
// its line is the last one fetched.
func (f *Frontend) fetch(addr isa.Addr, n int, d units.Cycles, timed bool) units.Cycles {
	line := isa.LineAddr(addr)
	covered := isa.LinesCovered(addr, isa.InstrRangeBytes(n))
	d = f.emit(op{kind: opFetch, addr: line, newLine: timed && line != f.lastFetch}, d)
	for ; covered > 1; covered-- {
		line += isa.LineBytes
		f.push(op{kind: opFetch, addr: line, newLine: timed})
	}
	if timed {
		f.lastFetch = line
	}
	return d
}

// data runs a data reference through the L1D, emitting an op for each
// line it misses; it returns the cycles still to carry.
func (f *Frontend) data(ev *trace.Event, d units.Cycles) units.Cycles {
	line := isa.LineAddr(ev.Addr)
	for covered := isa.LinesCovered(ev.Addr, int(ev.N)); covered > 0; covered-- {
		f.dLineAccesses++
		cl := cache.Line(isa.Line(line))
		if meta, hit := f.l1d.Access(cl); hit {
			if ev.Taken { // write
				meta.dirty = true
			}
		} else {
			f.dCacheMisses++
			evicted, had := f.l1d.Insert(cl, dataMeta{dirty: ev.Taken})
			d = f.emit(op{kind: opDataMiss, addr: line, dirty: had && evicted.Payload.dirty}, d)
		}
		line += isa.LineBytes
	}
	return d
}

// emit appends o, carrying the d cycles accrued before it, and returns
// the cycles left to carry: none. A stretch longer than maxDelta, a
// loop of billions of iterations, goes ahead in opCycles ops.
func (f *Frontend) emit(o op, d units.Cycles) units.Cycles {
	for ; d > maxDelta; d -= maxDelta {
		f.push(op{kind: opCycles, delta: maxDelta})
	}
	//cgplint:ignore cyclesafe bounded narrowing: the loop above leaves d at most maxDelta, which uint32 holds
	o.delta = uint32(d)
	f.push(o)
	return 0
}

// push appends o to the decoded batch.
func (f *Frontend) push(o op) {
	if f.n == len(f.ops) {
		f.growOps()
	}
	f.ops[f.n] = o
	f.n++
}

// growOps makes the op buffer on the first decode, sized for a replay
// batch, whose runs and data events cover a line or two each, and
// doubles it after.
//
//cgplint:coldpath the buffer reaches one batch's size on the first batch and outgrows it only on a batch of unusually long runs
func (f *Frontend) growOps() {
	ops := make([]op, max(2048, 2*len(f.ops)))
	copy(ops, f.ops)
	f.ops = ops
}

// stats copies the counters the front end owns into s.
func (f *Frontend) stats(s *Stats) {
	s.Instructions = f.instructions
	s.Calls = f.calls
	s.Switches = f.switches
	s.DLineAccesses = f.dLineAccesses
	s.DCacheMisses = f.dCacheMisses
	s.L1DStats = f.l1d.Stats()
	s.Branches = f.bp.Lookups() + f.loopBranches
	s.BranchMispredicts = f.bp.Mispredicts() + f.loopMispredicts
	s.Returns = f.ras.Pops()
	s.RASMispredicts = f.ras.Mispredicts()
}
