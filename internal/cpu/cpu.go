package cpu

import (
	"cgp/internal/cache"
	"cgp/internal/isa"
	"cgp/internal/prefetch"
	"cgp/internal/trace"
	"cgp/internal/units"
)

// lineMeta is the per-L1I-line state the demand path reads, for the
// prefetch effectiveness accounting of Figures 8 and 9. It is 3 bytes,
// so the L1I payload array stays small in the host's caches; a
// prefetched line's attribution provenance lives beside it, in the
// attribution collector's table.
type lineMeta struct {
	prefetched bool
	used       bool
	portion    prefetch.Portion
}

// CPU consumes a trace and accounts execution cycles. It implements
// trace.Consumer. A CPU is a back end fed by a Frontend (see
// frontend.go): its own, or one it shares with the other cells of a
// pass.
type CPU struct {
	cfg Config

	// fe decodes the events c consumes. shared says it also feeds other
	// CPUs, so its owner, not c, drives it.
	fe     *Frontend
	shared bool

	l1i *cache.Cache[lineMeta]
	l2  *cache.Cache[struct{}]

	pf prefetch.Prefetcher

	// issueFn is the prefetch sink handed to the prefetcher on every
	// fetch/call/return. It is bound once here: creating the method
	// value at each call site would heap-allocate a closure per event.
	issueFn prefetch.Issue

	// seqAhead and seqLines are the run a prefetch.Sequential
	// prefetcher declares: seqLines lines from seqAhead bytes past each
	// new fetch line. seqLines is 0 for any other prefetcher, whose
	// OnFetch runs on new lines instead.
	seqAhead isa.Addr
	seqLines int

	cycle     units.Cycles
	busFreeAt units.Cycles

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

	// attr is the per-function and per-query attribution collector,
	// nil unless EnableAttribution was called. Every hook below is
	// guarded by the nil check, so the disabled case costs one
	// predictable branch.
	attr *attribution

	// smp is the sampled-simulation state (see sample.go), nil unless
	// EnableSampling was called. Full-detail replay pays one predictable
	// nil check per batch.
	smp *sampler

	// stats holds the back end's counters; Finish adds the front end's.
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

// New builds a CPU with the given prefetcher (nil means no prefetching),
// fed by a front end of its own.
func New(cfg Config, pf prefetch.Prefetcher) *CPU {
	if pf == nil {
		pf = prefetch.None{}
	}
	c := &CPU{
		cfg: cfg,
		fe:  NewFrontend(cfg),
		l1i: cache.New[lineMeta](cfg.L1I),
		l2:  cache.New[struct{}](cfg.L2),
		pf:  pf,
	}
	c.issueFn = c.issue
	if s, ok := pf.(prefetch.Sequential); ok {
		ahead, lines := s.Sequential()
		c.seqAhead, c.seqLines = isa.Addr(ahead*isa.LineBytes), lines
	}
	c.fifo.init()
	c.forgetPresent()
	return c
}

// UseFrontend feeds c from f, a front end shared with other CPUs,
// instead of its own. Call it before c consumes anything, after
// EnableSampling if c samples; f must have been built for c's config
// and sample as c does. From then on the caller drives f: it calls
// f.Decode for each batch and then RunOps on every CPU f feeds, and
// f.BeginSpan and f.SkipSpan after the CPUs' own.
func (c *CPU) UseFrontend(f *Frontend) {
	if f.cfg != c.cfg.FrontendKey() || f.sampling != (c.smp != nil) {
		panic("cpu: UseFrontend: the front end was built for another config")
	}
	c.fe, c.shared = f, true
}

// Config returns the configuration c was built with.
func (c *CPU) Config() Config { return c.cfg }

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
		c.attr = newAttribution(c.cfg.L1I.Lines())
	}
}

// Cycle returns the current cycle count.
func (c *CPU) Cycle() units.Cycles { return c.cycle }

// decodeChunk bounds how many events EventBatch decodes at once, so the
// op buffer of a private front end stays one replay batch's size.
const decodeChunk = 512

// EventBatch implements trace.Consumer: c's own front end decodes the
// batch and RunOps runs it. It is the simulator's entry point: the
// whole subtree below it (decoding, cache scans, predictor updates,
// prefetcher hooks, ring bookkeeping) must stay free of heap
// allocation, which allocfree verifies statically and
// TestEventLoopDoesNotAllocate re-checks at runtime. A CPU on a shared
// front end is fed through RunOps instead.
//
//cgplint:hotpath
func (c *CPU) EventBatch(evs []trace.Event) {
	if c.shared {
		panic("cpu: EventBatch on a CPU fed by a shared front end")
	}
	for len(evs) > 0 {
		n := min(len(evs), decodeChunk)
		c.fe.Decode(evs[:n])
		c.RunOps()
		evs = evs[n:]
	}
}

// RunOps runs the ops of the batch c's front end decoded last through
// c's back end. A sampled CPU runs them by the current span's kind:
// functional warming (see sample.go) moves the caches and the
// prefetcher's call-graph history but takes no time, so its ops carry
// no cycles. Span boundaries fall between batches.
//
//cgplint:hotpath
func (c *CPU) RunOps() {
	f := c.fe
	ff, issue := false, c.issueFn
	if s := c.smp; s != nil {
		switch s.mode {
		case trace.SpanFunctionalWarm:
			s.ffEvents += int64(f.events)
			ff, issue = true, s.ffIssueFn
		case trace.SpanMeasure:
			s.measuredEvents += int64(f.events)
		default:
			s.warmEvents += int64(f.events)
		}
	}
	perfect := c.cfg.PerfectICache
	ops := f.ops[:f.n]
	for i := 0; i < len(ops); i++ {
		o := &ops[i]
		c.cycle += units.Cycles(o.delta)
		switch o.kind {
		case opFetch:
			switch {
			case perfect:
			case ff:
				c.ffFetchLine(o.addr)
			default:
				c.fetchLine(o.addr, o.newLine)
			}
		case opCall:
			if c.attr != nil {
				// The callee becomes the executing function before the
				// prefetcher runs, so prefetches triggered by this call
				// (CGP's callee-entry prefetch) attribute to the function
				// being entered — the function whose lines they fetch.
				c.attr.enter(o.addr)
			}
			i++
			if !perfect {
				c.pf.OnCall(o.addr, ops[i].addr, issue)
			}
		case opReturn:
			caller, pred := ops[i+1].addr, ops[i+2].addr
			i += 2
			if c.attr != nil {
				// The *actual* caller from the trace, not the RAS
				// prediction: attribution follows real control flow even
				// when the RAS is wrong (the prediction only decides what
				// CGP looks up).
				c.attr.enter(caller)
			}
			if !perfect {
				c.pf.OnReturn(pred, o.addr, issue)
			}
		case opDataMiss:
			if ff {
				c.l2Fill(cache.Line(isa.Line(o.addr)))
			} else {
				c.dataMiss(o.addr, o.dirty)
			}
		case opSwitch:
			if c.attr != nil {
				// The next batch belongs to no query until its own tag
				// arrives: an untagged batch must not smear onto the
				// previous query.
				c.attr.leaveQuery()
			}
		case opQueryTag:
			// A tagged live capture scopes the batch that follows to one
			// query's trace ID; without attribution the tag is inert.
			if c.attr != nil {
				c.attr.enterQuery(uint64(o.addr))
			}
		}
	}
	c.cycle += f.tail
}

// Finish flushes residual accounting (the useless-prefetch count of
// lines still resident or in flight is left uncounted, matching the
// end-of-run truncation any simulator has) and returns the statistics.
func (c *CPU) Finish() *Stats {
	s := c.stats
	c.fe.stats(&s)
	s.Cycles = c.cycle
	s.L1IStats = c.l1i.Stats()
	s.L2Stats = c.l2.Stats()
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

// fetchLine performs one demand instruction fetch of a full line,
// charging any miss stall, and on a new line runs the prefetcher's
// fetch hook: the declared sequential run, or else OnFetch.
func (c *CPU) fetchLine(line isa.Addr, newLine bool) {
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
	cl := cache.Line(isa.Line(line))
	if meta, hit := c.l1i.Access(cl); hit {
		if meta.prefetched && !meta.used {
			meta.used = true
			c.portionStats(meta.portion).PrefHits++
			if c.attr != nil {
				c.attr.used(false, c.cycle, c.attr.prov[c.l1i.Slot(cl)])
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
			c.attr.used(true, c.cycle, inf.prov)
		}
		// The entry stays queued (the bus transfer already happened)
		// but is marked consumed and unindexed so drain skips it. The
		// line lands used, so its provenance is never read again.
		inf.done = true
		c.fifo.remove(line)
		c.insertL1I(line, lineMeta{prefetched: true, used: true, portion: inf.portion})
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
	if !newLine {
		return
	}
	if c.seqLines > 0 {
		c.issue(prefetch.Request{Addr: line + c.seqAhead, Lines: c.seqLines, Portion: prefetch.PortionNL})
	} else {
		c.pf.OnFetch(line, c.issueFn)
	}
}

// insertL1I fills a line and settles the useless-prefetch accounting for
// the victim, which also leaves the squash filter.
func (c *CPU) insertL1I(line isa.Addr, meta lineMeta) {
	cl := cache.Line(isa.Line(line))
	ev, had := c.l1i.Insert(cl, meta)
	if !had {
		return
	}
	if slot := &c.present[ev.Line&(squashSlots-1)]; *slot == ev.Line {
		*slot = noLine
	}
	if ev.Payload.prefetched && !ev.Payload.used {
		c.portionStats(ev.Payload.portion).Useless++
		if c.attr != nil {
			// The line took its victim's slot, which still holds the
			// victim's provenance.
			c.attr.useless(c.attr.prov[c.l1i.Slot(cl)])
		}
	}
}

// fillPrefetched moves a queued prefetch whose data has arrived into
// L1I, unused, with its provenance when attribution is on.
func (c *CPU) fillPrefetched(inf *inflight) {
	line, portion, prov := inf.line, inf.portion, inf.prov
	c.fifo.remove(line)
	c.insertL1I(line, lineMeta{prefetched: true, portion: portion})
	if c.attr != nil {
		c.attr.prov[c.l1i.Slot(cache.Line(isa.Line(line)))] = prov
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
	var prov provenance
	if c.attr != nil {
		prov = c.attr.issued(c.cycle)
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
	c.fifo.push(inflight{line: line, readyAt: c.cycle + lat, portion: portion, prov: prov})
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
		// An entry consumed as a delayed hit was unindexed then.
		if !inf.done {
			c.fillPrefetched(inf)
		}
		c.fifo.popFront()
	}
}

// l2DemandAccess is l2LineAccess for demand misses: identical unless
// the DemandPriority ablation is on, in which case the demand request
// bypasses queued prefetches (it still occupies the bus afterwards).
func (c *CPU) l2DemandAccess(line isa.Addr) units.Cycles {
	if !c.cfg.DemandPriority {
		return c.l2LineAccess(line)
	}
	c.busFreeAt += c.cfg.BusCyclesPerLine
	ready := c.cycle + c.cfg.L2Latency
	if !c.l2Fill(cache.Line(isa.Line(line))) {
		ready += c.cfg.MemLatency
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
	ready := start + c.cfg.L2Latency
	if !c.l2Fill(cache.Line(isa.Line(line))) {
		ready += c.cfg.MemLatency
	}
	return ready - c.cycle
}

// l2Fill counts one line transfer to L2 and fills the line from memory
// when L2 misses; it reports whether L2 hit.
func (c *CPU) l2Fill(cl cache.Line) bool {
	c.stats.L2Accesses++
	if _, hit := c.l2.Access(cl); hit {
		return true
	}
	c.stats.L2Misses++
	c.l2.Insert(cl, struct{}{})
	return false
}

func (c *CPU) portionStats(p prefetch.Portion) *PrefetchStats {
	if p == prefetch.PortionCGHC {
		return &c.stats.CGHC
	}
	return &c.stats.NL
}

// ---- data side ----

// dataMiss fetches a line the L1D missed from L2. The out-of-order
// window hides all but DataStallFactor of the latency. The writeback of
// a dirty victim occupies the bus but does not stall the core.
func (c *CPU) dataMiss(line isa.Addr, dirty bool) {
	lat := c.l2DemandAccess(line)
	c.cycle += units.Cycles(float64(lat) * c.cfg.DataStallFactor)
	if dirty {
		c.busFreeAt += c.cfg.BusCyclesPerLine
		c.stats.L2Accesses++
	}
}
