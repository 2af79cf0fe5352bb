package cpu

import (
	"math/bits"

	"cgp/internal/branch"
	"cgp/internal/cache"
	"cgp/internal/isa"
	"cgp/internal/prefetch"
	"cgp/internal/trace"
	"cgp/internal/units"
)

// lineMeta is the per-L1I-line bookkeeping used for the prefetch
// effectiveness accounting of Figures 8 and 9.
type lineMeta struct {
	prefetched bool
	used       bool
	portion    prefetch.Portion
	// issuedAt / issuer / qissuer record when the prefetch was
	// launched and which function and query attribution rows triggered
	// it (query row 0 outside any tagged query). They are only
	// meaningful for prefetched lines on a CPU with attribution
	// enabled; otherwise they stay zero.
	issuedAt units.Cycles
	issuer   int32
	qissuer  int32
}

// dataMeta is the per-L1D-line state.
type dataMeta struct {
	dirty bool
}

// CPU consumes a trace and accounts execution cycles. It implements
// trace.Consumer.
type CPU struct {
	cfg Config

	l1i *cache.Cache[lineMeta]
	l1d *cache.Cache[dataMeta]
	l2  *cache.Cache[struct{}]

	bp  *branch.Predictor
	ras *branch.RAS
	pf  prefetch.Prefetcher

	// issueFn is the prefetch sink handed to the prefetcher on every
	// fetch/call/return. It is bound once here: creating the method
	// value at each call site would heap-allocate a closure per event.
	issueFn prefetch.Issue

	cycle      units.Cycles
	instrCarry units.Instrs
	busFreeAt  units.Cycles

	// fetchShift is log2(FetchWidth) when the width is a power of two
	// (-1 otherwise), so addThroughput's per-event div/mod reduces to a
	// shift and mask.
	fetchShift int

	// fifo is the prefetch queue: value-typed ring + line index (see
	// inflight.go).
	fifo inflightRing

	// present is the exact squash filter: a direct-mapped table, indexed
	// by line number, of lines known to be resident in L1I or queued in
	// the FIFO, so most squashed prefetch lines cost one compare instead
	// of an L1I tag scan and a FIFO lookup. A line enters when issue
	// finds it present or pushes it into the FIFO, and insertL1I clears
	// an evicted line's slot. That keeps every entry true because L1I
	// and the FIFO index are disjoint and a line leaves both only by L1I
	// eviction: a drained or delayed-hit FIFO entry moves straight into
	// L1I. Functional warming's prefetch sink (ffIssue) fills L1I
	// directly, evicting lines without clearing their slots, so
	// BeginSpan and SkipSpan clear the table. A line not in the table
	// says nothing and is probed.
	present [squashSlots]cache.Line

	// Loop events carry their own branch accounting (the predictor is
	// not consulted per compressed iteration).
	loopBranches    int64
	loopMispredicts int64

	// attr is the per-function and per-query attribution collector,
	// nil unless EnableAttribution was called. Every hook below is
	// guarded by the nil check, so the disabled case costs one
	// predictable branch.
	attr *attribution

	// smp is the sampled-simulation state (see sample.go), nil unless
	// EnableSampling was called. Full-detail replay pays one predictable
	// nil check per batch.
	smp *sampler

	stats Stats
}

const (
	// squashSlots is the squash filter's size, a power of two: as many
	// slots as the Table-1 L1I has lines, 8 KB per CPU. Over every
	// figure at WiscN=2000 it answers 91% of the 172M prefetch lines
	// without a probe, against 67% at 64 slots and 79% at 256. Only a
	// squashed line can hit, and 94% are squashed.
	squashSlots = 1024
	// noLine marks an empty squash-filter slot: the all-ones line
	// number, which no address maps to.
	noLine = ^cache.Line(0)
)

// New builds a CPU with the given prefetcher (nil means no prefetching).
func New(cfg Config, pf prefetch.Prefetcher) *CPU {
	if pf == nil {
		pf = prefetch.None{}
	}
	c := &CPU{
		cfg: cfg,
		l1i: cache.New[lineMeta](cfg.L1I),
		l1d: cache.New[dataMeta](cfg.L1D),
		l2:  cache.New[struct{}](cfg.L2),
		bp:  branch.NewPredictor(cfg.BranchEntries),
		ras: branch.NewRAS(cfg.RASDepth),
		pf:  pf,
	}
	c.issueFn = c.issue
	c.fifo.init()
	c.forgetPresent()
	c.fetchShift = -1
	if w := cfg.FetchWidth; w > 0 && w&(w-1) == 0 {
		c.fetchShift = bits.TrailingZeros(uint(w))
	}
	return c
}

// Prefetcher returns the attached prefetcher.
func (c *CPU) Prefetcher() prefetch.Prefetcher { return c.pf }

// EnableAttribution turns on per-function prefetch attribution. Call
// it before consuming events; the extra accounting shows up as
// Stats.Attribution and changes no other counter, so an
// attribution-enabled run stays comparable (and, minus the table,
// identical) to a plain one. Attribution is deliberately not part of
// Config: enabling it must not change config fingerprints or cache
// keys.
func (c *CPU) EnableAttribution() {
	if c.attr == nil {
		c.attr = newAttribution()
	}
}

// AttributionEnabled reports whether EnableAttribution was called.
func (c *CPU) AttributionEnabled() bool { return c.attr != nil }

// Cycle returns the current cycle count.
func (c *CPU) Cycle() units.Cycles { return c.cycle }

// EventBatch implements trace.Consumer. It is the simulator's entry
// point: the whole subtree below it (cache scans, predictor updates,
// prefetcher hooks, ring bookkeeping) must stay free of heap
// allocation, which allocfree verifies statically and
// TestEventLoopDoesNotAllocate re-checks at runtime. A sampled CPU
// routes the batch by the current span's kind; span boundaries fall
// between batches.
//
//cgplint:hotpath
func (c *CPU) EventBatch(evs []trace.Event) {
	if s := c.smp; s != nil {
		switch s.mode {
		case trace.SpanFunctionalWarm:
			s.ffEvents += int64(len(evs))
			for i := range evs {
				c.ffEvent(&evs[i])
			}
			return
		case trace.SpanMeasure:
			s.measuredEvents += int64(len(evs))
		default:
			s.warmEvents += int64(len(evs))
		}
	}
	for i := range evs {
		c.event(evs[i])
	}
}

func (c *CPU) event(ev trace.Event) {
	switch ev.Kind {
	case trace.KindRun:
		c.run(ev.Addr, int(ev.N))
	case trace.KindLoop:
		c.loop(ev.Addr, int(ev.N), int(ev.Iters))
	case trace.KindBranch:
		c.branch(ev)
	case trace.KindCall:
		c.call(ev)
	case trace.KindReturn:
		c.ret(ev)
	case trace.KindData:
		c.data(ev)
	case trace.KindSwitch:
		c.contextSwitch()
	case trace.KindQueryTag:
		// A tagged live capture scopes the batch that follows to one
		// query's trace ID; without attribution the tag is inert.
		if c.attr != nil {
			c.attr.enterQuery(uint64(ev.Addr))
		}
	}
}

// Finish flushes residual accounting (the useless-prefetch count of
// lines still resident or in flight is left uncounted, matching the
// end-of-run truncation any simulator has) and returns the statistics.
func (c *CPU) Finish() *Stats {
	s := c.stats
	s.Cycles = c.cycle
	s.L1IStats = c.l1i.Stats()
	s.L1DStats = c.l1d.Stats()
	s.L2Stats = c.l2.Stats()
	s.Branches = c.bp.Lookups() + c.loopBranches
	s.BranchMispredicts = c.bp.Mispredicts() + c.loopMispredicts
	s.Returns = c.ras.Pops()
	s.RASMispredicts = c.ras.Mispredicts()
	if c.attr != nil {
		s.Attribution = c.attr.sorted()
		s.QueryAttr = c.attr.qsorted()
	}
	if c.smp != nil {
		c.closeWindow()
		s.Sample = c.smp.finish(s.Instructions, c.cycle)
	}
	return &s
}

// ---- instruction side ----

// run fetches n sequential instructions starting at addr.
func (c *CPU) run(addr isa.Addr, n int) {
	if n <= 0 {
		return
	}
	c.stats.Instructions += units.Instrs(n)
	c.addThroughput(n)
	if c.cfg.PerfectICache {
		return
	}
	line := isa.LineAddr(addr)
	for covered := isa.LinesCovered(addr, isa.InstrRangeBytes(n)); covered > 0; covered-- {
		c.fetchLine(line)
		line += isa.LineBytes
	}
}

// loop fetches a body of bodyInstr instructions once and accounts for
// iters executions of it (the lines stay resident across iterations).
func (c *CPU) loop(addr isa.Addr, bodyInstr, iters int) {
	if bodyInstr <= 0 || iters <= 0 {
		return
	}
	c.stats.Instructions += units.Instrs(int64(bodyInstr) * int64(iters))
	c.addThroughput(bodyInstr * iters)
	// One fetch redirect per iteration's back edge; the predictor locks
	// onto the loop after warmup and mispredicts the exit.
	c.cycle += units.Cycles(iters) * c.cfg.TakenBranchBubble
	c.loopBranches += int64(iters)
	c.loopMispredicts++ // the loop-exit mispredict
	c.cycle += c.cfg.MispredictPenalty
	if c.cfg.PerfectICache {
		return
	}
	line := isa.LineAddr(addr)
	for covered := isa.LinesCovered(addr, isa.InstrRangeBytes(bodyInstr)); covered > 0; covered-- {
		c.fetchLine(line)
		line += isa.LineBytes
	}
}

// addThroughput charges fetch/issue bandwidth for n instructions. The
// fetch width is the instrs-per-cycle ratio that crosses instruction
// counts into cycles, hence the explicit int64 step. The carry is never
// negative, so the power-of-two shift/mask equals the div/mod exactly.
func (c *CPU) addThroughput(n int) {
	c.instrCarry += units.Instrs(n)
	if s := c.fetchShift; s >= 0 {
		c.cycle += units.Cycles(int64(c.instrCarry) >> s)
		c.instrCarry &= units.Instrs(int64(1)<<s - 1)
		return
	}
	c.cycle += units.Cycles(int64(c.instrCarry) / int64(c.cfg.FetchWidth))
	c.instrCarry %= units.Instrs(c.cfg.FetchWidth)
}

// fetchLine performs one demand instruction fetch of a full line,
// charging any miss stall, and triggers the prefetcher.
func (c *CPU) fetchLine(line isa.Addr) {
	c.stats.ILineAccesses++
	if c.attr != nil {
		c.attr.fetched()
	}
	// Fill L1I with prefetches whose data has arrived. The
	// nothing-to-do case — empty FIFO, or an oldest entry still in
	// transit — is checked here so it costs no call on every fetched
	// line; the drain itself is split out.
	if c.fifo.head != c.fifo.tail {
		if inf := &c.fifo.buf[c.fifo.head&uint64(len(c.fifo.buf)-1)]; inf.done || inf.readyAt <= c.cycle {
			c.drainLoop()
		}
	}
	if meta, hit := c.l1i.Access(cache.Line(isa.Line(line))); hit {
		if meta.prefetched && !meta.used {
			meta.used = true
			c.portionStats(meta.portion).PrefHits++
			if c.attr != nil {
				c.attr.used(false, c.cycle-meta.issuedAt, meta.issuer, meta.qissuer)
			}
		}
	} else if inf := c.fifo.lookup(line); inf != nil {
		// The line is enroute from L2: a delayed hit (Figure 8).
		wait := inf.readyAt - c.cycle
		if wait < 0 {
			wait = 0
		}
		c.cycle += wait
		c.stats.IMissStallCycles += wait
		c.portionStats(inf.portion).DelayedHits++
		if c.attr != nil {
			c.attr.used(true, c.cycle-inf.issuedAt, inf.issuer, inf.qissuer)
		}
		// The entry stays queued (the bus transfer already happened)
		// but is marked consumed and unindexed so drain skips it.
		done := lineMeta{prefetched: true, used: true, portion: inf.portion,
			issuedAt: inf.issuedAt, issuer: inf.issuer, qissuer: inf.qissuer}
		inf.done = true
		c.fifo.remove(line)
		c.insertL1I(line, done)
	} else {
		// Full miss: go to L2 through the shared FIFO.
		c.stats.ICacheMisses++
		if c.attr != nil {
			c.attr.missed()
		}
		lat := c.l2DemandAccess(line)
		c.cycle += lat
		c.stats.IMissStallCycles += lat
		c.insertL1I(line, lineMeta{})
	}
	c.pf.OnFetch(line, c.issueFn)
}

// insertL1I fills a line and settles the useless-prefetch accounting for
// the victim, which also leaves the squash filter.
func (c *CPU) insertL1I(line isa.Addr, meta lineMeta) {
	ev, had := c.l1i.Insert(cache.Line(isa.Line(line)), meta)
	if !had {
		return
	}
	if slot := &c.present[ev.Line&(squashSlots-1)]; *slot == ev.Line {
		*slot = noLine
	}
	if ev.Payload.prefetched && !ev.Payload.used {
		c.portionStats(ev.Payload.portion).Useless++
		if c.attr != nil {
			c.attr.useless(ev.Payload.issuer, ev.Payload.qissuer)
		}
	}
}

// forgetPresent empties the squash filter.
func (c *CPU) forgetPresent() {
	for i := range c.present {
		c.present[i] = noLine
	}
}

// issue is the prefetch.Issue sink handed to the prefetcher. It walks
// the run in ascending order and squashes each line already resident
// or in flight, asking the squash filter before probing L1I and the
// FIFO; each line counts one Squashed or Issued, exactly as if it had
// been requested alone.
func (c *CPU) issue(req prefetch.Request) {
	var squashed int64
	attr := c.attr
	line := isa.LineAddr(req.Addr)
	for n := req.Lines; n > 0; n, line = n-1, line+isa.LineBytes {
		cl := cache.Line(isa.Line(line))
		if slot := &c.present[cl&(squashSlots-1)]; *slot != cl {
			if !c.l1i.Contains(cl) && c.fifo.lookup(line) == nil {
				c.prefetchLine(line, req.Portion)
				continue
			}
			*slot = cl
		}
		// Already resident or already in flight.
		squashed++
		if attr != nil {
			attr.squashed()
		}
	}
	c.portionStats(req.Portion).Squashed += squashed
}

// prefetchLine sends one line that is neither resident nor in flight
// to L2.
func (c *CPU) prefetchLine(line isa.Addr, portion prefetch.Portion) {
	c.portionStats(portion).Issued++
	var issuer, qissuer int32
	if c.attr != nil {
		issuer, qissuer = c.attr.issued()
	}
	if c.cfg.PrefetchIntoL2Only {
		// The line is staged in L2 only: warm the L2 (paying the memory
		// trip if absent) but never fill L1I, so the later demand fetch
		// still costs an L2 hit. The line is not in flight, so it stays
		// out of the squash filter.
		c.l2LineAccess(line)
		return
	}
	lat := c.l2LineAccess(line)
	c.fifo.push(inflight{line: line, readyAt: c.cycle + lat, portion: portion,
		issuedAt: c.cycle, issuer: issuer, qissuer: qissuer})
	cl := cache.Line(isa.Line(line))
	c.present[cl&(squashSlots-1)] = cl
}

// drainLoop pops every front entry whose data has arrived. The ring
// frees slots as entries drain, so — unlike the old slice queue, which
// needed periodic compaction — a run whose queue never fully empties
// still holds only the live window.
func (c *CPU) drainLoop() {
	for !c.fifo.empty() {
		inf := c.fifo.front()
		if !inf.done && inf.readyAt > c.cycle {
			break
		}
		line, done := inf.line, inf.done
		meta := lineMeta{prefetched: true, portion: inf.portion,
			issuedAt: inf.issuedAt, issuer: inf.issuer, qissuer: inf.qissuer}
		c.fifo.popFront()
		if done {
			// Already consumed as a delayed hit (and unindexed then).
			continue
		}
		c.fifo.remove(line)
		c.insertL1I(line, meta)
	}
}

// l2DemandAccess is l2LineAccess for demand misses: identical unless
// the DemandPriority ablation is on, in which case the demand request
// bypasses queued prefetches (it still occupies the bus afterwards).
func (c *CPU) l2DemandAccess(line isa.Addr) units.Cycles {
	if !c.cfg.DemandPriority {
		return c.l2LineAccess(line)
	}
	c.stats.L2Accesses++
	c.busFreeAt += c.cfg.BusCyclesPerLine
	ready := c.cycle + c.cfg.L2Latency
	if _, hit := c.l2.Access(cache.Line(isa.Line(line))); !hit {
		c.stats.L2Misses++
		ready += c.cfg.MemLatency
		c.l2.Insert(cache.Line(isa.Line(line)), struct{}{})
	}
	return ready - c.cycle
}

// l2LineAccess models one line transfer over the shared L1<->L2
// interface, returning the latency from now until the line arrives.
// Requests serialize on the bus in FIFO order with no demand priority.
func (c *CPU) l2LineAccess(line isa.Addr) units.Cycles {
	start := c.cycle
	if c.busFreeAt > start {
		start = c.busFreeAt
	}
	c.busFreeAt = start + c.cfg.BusCyclesPerLine
	c.stats.L2Accesses++
	ready := start + c.cfg.L2Latency
	if _, hit := c.l2.Access(cache.Line(isa.Line(line))); !hit {
		c.stats.L2Misses++
		ready += c.cfg.MemLatency
		c.l2.Insert(cache.Line(isa.Line(line)), struct{}{})
	}
	return ready - c.cycle
}

func (c *CPU) portionStats(p prefetch.Portion) *PrefetchStats {
	if p == prefetch.PortionCGHC {
		return &c.stats.CGHC
	}
	return &c.stats.NL
}

// ---- control flow ----

func (c *CPU) branch(ev trace.Event) {
	correct := c.bp.Predict(ev.Addr, ev.Taken)
	if !correct {
		c.cycle += c.cfg.MispredictPenalty
	}
	if ev.Taken {
		c.cycle += c.cfg.TakenBranchBubble
	}
}

func (c *CPU) call(ev trace.Event) {
	c.stats.Calls++
	if c.attr != nil {
		// The callee becomes the executing function before the
		// prefetcher runs, so prefetches triggered by this call (CGP's
		// callee-entry prefetch) attribute to the function being
		// entered — the function whose lines they fetch.
		c.attr.enter(ev.Target)
	}
	c.ras.Push(branch.RASEntry{
		ReturnAddr:  ev.Addr + isa.InstrBytes,
		CallerStart: ev.CallerStart,
	})
	c.cycle += c.cfg.TakenBranchBubble
	if !c.cfg.PerfectICache {
		c.pf.OnCall(ev.Target, ev.CallerStart, c.issueFn)
	}
}

func (c *CPU) ret(ev trace.Event) {
	if c.attr != nil {
		// The *actual* caller from the trace, not the RAS prediction:
		// attribution follows real control flow even when the RAS is
		// wrong (the prediction only decides what CGP looks up).
		c.attr.enter(ev.CallerStart)
	}
	pred, ok := c.ras.Pop()
	if !c.ras.RecordOutcome(pred, ok, ev.Target) {
		c.cycle += c.cfg.MispredictPenalty
	}
	c.cycle += c.cfg.TakenBranchBubble
	if !c.cfg.PerfectICache {
		// CGP sees the *predicted* caller start from the modified RAS:
		// a wrong RAS entry sends the CGHC lookup to the wrong tag.
		var predCaller isa.Addr
		if ok {
			predCaller = pred.CallerStart
		}
		c.pf.OnReturn(predCaller, ev.Addr, c.issueFn)
	}
}

func (c *CPU) contextSwitch() {
	c.stats.Switches++
	c.cycle += c.cfg.SwitchPenalty
	if c.cfg.FlushRASOnSwitch {
		c.ras.Flush()
	}
	if c.attr != nil {
		// The next batch belongs to no query until its own tag arrives:
		// an untagged batch must not smear onto the previous query.
		c.attr.leaveQuery()
	}
}

// ---- data side ----

func (c *CPU) data(ev trace.Event) {
	line := isa.LineAddr(ev.Addr)
	for covered := isa.LinesCovered(ev.Addr, int(ev.N)); covered > 0; covered-- {
		c.stats.DLineAccesses++
		if meta, hit := c.l1d.Access(cache.Line(isa.Line(line))); hit {
			if ev.Taken { // write
				meta.dirty = true
			}
		} else {
			c.stats.DCacheMisses++
			lat := c.l2DemandAccess(line)
			stall := units.Cycles(float64(lat) * c.cfg.DataStallFactor)
			c.cycle += stall
			evicted, had := c.l1d.Insert(cache.Line(isa.Line(line)), dataMeta{dirty: ev.Taken})
			if had && evicted.Payload.dirty {
				// Writeback occupies the bus but does not stall the core.
				c.busFreeAt += c.cfg.BusCyclesPerLine
				c.stats.L2Accesses++
			}
		}
		line += isa.LineBytes
	}
}
