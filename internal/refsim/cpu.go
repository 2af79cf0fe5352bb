package refsim

import (
	"cgp/internal/branch"
	"cgp/internal/cache"
	"cgp/internal/cpu"
	"cgp/internal/isa"
	"cgp/internal/prefetch"
	"cgp/internal/trace"
	"cgp/internal/units"
)

// lineMeta mirrors cpu's per-L1I-line prefetch bookkeeping.
type lineMeta struct {
	prefetched bool
	used       bool
	portion    prefetch.Portion
}

// dataMeta mirrors cpu's per-L1D-line state.
type dataMeta struct {
	dirty bool
}

// inflight tracks a prefetch issued to the L2 FIFO but not yet filled
// into L1I. The reference kernel heap-allocates one per issue and
// indexes them with a Go map — exactly the steady-state allocations the
// optimized kernel eliminates.
type inflight struct {
	line    isa.Addr
	readyAt units.Cycles
	portion prefetch.Portion
	done    bool
}

// CPU is the frozen pre-optimization trace consumer. It shares
// cpu.Config and cpu.Stats with the live kernel so results compare
// field-for-field.
type CPU struct {
	cfg cpu.Config

	l1i *Cache[lineMeta]
	l1d *Cache[dataMeta]
	l2  *Cache[struct{}]

	bp  *branch.Predictor
	ras *branch.RAS
	pf  prefetch.Prefetcher

	cycle      units.Cycles
	instrCarry units.Instrs
	busFreeAt  units.Cycles

	queue   []*inflight
	qHead   int
	pending map[isa.Addr]*inflight

	loopBranches    int64
	loopMispredicts int64

	stats cpu.Stats
}

var _ Consumer = (*CPU)(nil)

// New builds a reference CPU with the given prefetcher (nil means no
// prefetching).
func New(cfg cpu.Config, pf prefetch.Prefetcher) *CPU {
	if pf == nil {
		pf = prefetch.None{}
	}
	return &CPU{
		cfg:     cfg,
		l1i:     NewCache[lineMeta](cfg.L1I),
		l1d:     NewCache[dataMeta](cfg.L1D),
		l2:      NewCache[struct{}](cfg.L2),
		bp:      branch.NewPredictor(cfg.BranchEntries),
		ras:     branch.NewRAS(cfg.RASDepth),
		pf:      pf,
		pending: make(map[isa.Addr]*inflight),
	}
}

// Event implements Consumer: the reference kernel replays through the
// per-event interface path.
func (c *CPU) Event(ev trace.Event) {
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
	}
}

// Finish returns the statistics, exactly as cpu.CPU.Finish does.
func (c *CPU) Finish() *cpu.Stats {
	s := c.stats
	s.Cycles = c.cycle
	s.L1IStats = c.l1i.Stats()
	s.L1DStats = c.l1d.Stats()
	s.L2Stats = c.l2.Stats()
	s.Branches = c.bp.Lookups() + c.loopBranches
	s.BranchMispredicts = c.bp.Mispredicts() + c.loopMispredicts
	s.Returns = c.ras.Pops()
	s.RASMispredicts = c.ras.Mispredicts()
	return &s
}

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

func (c *CPU) loop(addr isa.Addr, bodyInstr, iters int) {
	if bodyInstr <= 0 || iters <= 0 {
		return
	}
	c.stats.Instructions += units.Instrs(int64(bodyInstr) * int64(iters))
	c.addThroughput(bodyInstr * iters)
	c.cycle += units.Cycles(iters) * c.cfg.TakenBranchBubble
	c.loopBranches += int64(iters)
	c.loopMispredicts++
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

func (c *CPU) addThroughput(n int) {
	c.instrCarry += units.Instrs(n)
	c.cycle += units.Cycles(int64(c.instrCarry) / int64(c.cfg.FetchWidth))
	c.instrCarry %= units.Instrs(c.cfg.FetchWidth)
}

func (c *CPU) fetchLine(line isa.Addr) {
	c.stats.ILineAccesses++
	c.drainCompleted()
	if meta, hit := c.l1i.Access(cache.Line(isa.Line(line))); hit {
		if meta.prefetched && !meta.used {
			meta.used = true
			c.portionStats(meta.portion).PrefHits++
		}
	} else if inf, ok := c.pending[line]; ok {
		wait := inf.readyAt - c.cycle
		if wait < 0 {
			wait = 0
		}
		c.cycle += wait
		c.stats.IMissStallCycles += wait
		c.portionStats(inf.portion).DelayedHits++
		inf.done = true
		delete(c.pending, line)
		c.insertL1I(line, lineMeta{prefetched: true, used: true, portion: inf.portion})
	} else {
		c.stats.ICacheMisses++
		lat := c.l2DemandAccess(line)
		c.cycle += lat
		c.stats.IMissStallCycles += lat
		c.insertL1I(line, lineMeta{})
	}
	// A fresh method-value closure per call: the allocation the
	// optimized kernel hoists into a field.
	c.pf.OnFetch(line, c.issue)
}

func (c *CPU) insertL1I(line isa.Addr, meta lineMeta) {
	ev, had := c.l1i.Insert(cache.Line(isa.Line(line)), meta)
	if had && ev.Payload.prefetched && !ev.Payload.used {
		c.portionStats(ev.Payload.portion).Useless++
	}
}

// issue is the reference model's prefetch sink. It is bound to the hot
// prefetch.Issue type at the OnFetch/OnCall/OnReturn call sites, but
// the reference kernel is deliberately outside the zero-alloc
// contract: it exists as the differential-test oracle, and simplicity
// beats allocation discipline here (see the package comment). A run is
// expanded line by line, and every line is probed in full: the oracle
// keeps no memory of earlier probes.
//
//cgplint:coldpath reference-model oracle favors simplicity; it heap-allocates one inflight per issue by documented design
func (c *CPU) issue(req prefetch.Request) {
	line := isa.LineAddr(req.Addr)
	for i := 0; i < req.Lines; i++ {
		c.issueLine(line+isa.Addr(i*isa.LineBytes), req.Portion)
	}
}

// issueLine squashes or issues one prefetched line.
func (c *CPU) issueLine(line isa.Addr, portion prefetch.Portion) {
	ps := c.portionStats(portion)
	if _, hit := c.l1i.Probe(cache.Line(isa.Line(line))); hit {
		ps.Squashed++
		return
	}
	if _, inFlight := c.pending[line]; inFlight {
		ps.Squashed++
		return
	}
	ps.Issued++
	if c.cfg.PrefetchIntoL2Only {
		c.l2LineAccess(line)
		return
	}
	lat := c.l2LineAccess(line)
	inf := &inflight{line: line, readyAt: c.cycle + lat, portion: portion}
	c.pending[line] = inf
	c.queue = append(c.queue, inf)
}

func (c *CPU) drainCompleted() {
	for c.qHead < len(c.queue) {
		inf := c.queue[c.qHead]
		if !inf.done && inf.readyAt > c.cycle {
			break
		}
		c.qHead++
		if inf.done {
			continue
		}
		delete(c.pending, inf.line)
		c.insertL1I(inf.line, lineMeta{prefetched: true, portion: inf.portion})
	}
	switch {
	case c.qHead > 0 && c.qHead == len(c.queue):
		c.queue = c.queue[:0]
		c.qHead = 0
	case c.qHead > len(c.queue)/2:
		n := copy(c.queue, c.queue[c.qHead:])
		tail := c.queue[n:]
		for i := range tail {
			tail[i] = nil
		}
		c.queue = c.queue[:n]
		c.qHead = 0
	}
}

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

func (c *CPU) portionStats(p prefetch.Portion) *cpu.PrefetchStats {
	if p == prefetch.PortionCGHC {
		return &c.stats.CGHC
	}
	return &c.stats.NL
}

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
	c.ras.Push(branch.RASEntry{
		ReturnAddr:  ev.Addr + isa.InstrBytes,
		CallerStart: ev.CallerStart,
	})
	c.cycle += c.cfg.TakenBranchBubble
	if !c.cfg.PerfectICache {
		c.pf.OnCall(ev.Target, ev.CallerStart, c.issue)
	}
}

func (c *CPU) ret(ev trace.Event) {
	pred, ok := c.ras.Pop()
	if !c.ras.RecordOutcome(pred, ok, ev.Target) {
		c.cycle += c.cfg.MispredictPenalty
	}
	c.cycle += c.cfg.TakenBranchBubble
	if !c.cfg.PerfectICache {
		var predCaller isa.Addr
		if ok {
			predCaller = pred.CallerStart
		}
		c.pf.OnReturn(predCaller, ev.Addr, c.issue)
	}
}

func (c *CPU) contextSwitch() {
	c.stats.Switches++
	c.cycle += c.cfg.SwitchPenalty
	if c.cfg.FlushRASOnSwitch {
		c.ras.Flush()
	}
}

func (c *CPU) data(ev trace.Event) {
	line := isa.LineAddr(ev.Addr)
	for covered := isa.LinesCovered(ev.Addr, int(ev.N)); covered > 0; covered-- {
		c.stats.DLineAccesses++
		if meta, hit := c.l1d.Access(cache.Line(isa.Line(line))); hit {
			if ev.Taken {
				meta.dirty = true
			}
		} else {
			c.stats.DCacheMisses++
			lat := c.l2DemandAccess(line)
			stall := units.Cycles(float64(lat) * c.cfg.DataStallFactor)
			c.cycle += stall
			evicted, had := c.l1d.Insert(cache.Line(isa.Line(line)), dataMeta{dirty: ev.Taken})
			if had && evicted.Payload.dirty {
				c.busFreeAt += c.cfg.BusCyclesPerLine
				c.stats.L2Accesses++
			}
		}
		line += isa.LineBytes
	}
}
