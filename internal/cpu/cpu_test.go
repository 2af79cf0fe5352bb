package cpu

import (
	"slices"
	"testing"

	"cgp/internal/isa"
	"cgp/internal/prefetch"
	"cgp/internal/trace"
	"cgp/internal/units"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.SwitchPenalty = 24
	return cfg
}

func run(addr isa.Addr, n int32) trace.Event {
	return trace.Event{Kind: trace.KindRun, Addr: addr, N: n}
}

// feed hands c the events as one batch.
func feed(c *CPU, evs ...trace.Event) { c.EventBatch(evs) }

func TestThroughputOnly(t *testing.T) {
	c := New(testConfig(), nil)
	// 64 instructions, all hitting after first-line misses; the
	// throughput component is 64/4 = 16 cycles.
	feed(c, run(0x400000, 64))
	s := c.Finish()
	if s.Instructions != 64 {
		t.Errorf("instructions = %d", s.Instructions)
	}
	if s.ICacheMisses != 8 { // 64 instr = 8 lines, all cold
		t.Errorf("misses = %d, want 8", s.ICacheMisses)
	}
	wantMin := units.Cycles(16) // throughput floor
	if s.Cycles < wantMin {
		t.Errorf("cycles = %d < %d", s.Cycles, wantMin)
	}
}

func TestFetchCarryAccumulates(t *testing.T) {
	c := New(testConfig(), nil)
	// 2 instructions per event, 4 events: exactly 2 cycles of
	// throughput, not 4 (the carry must accumulate across events).
	for i := 0; i < 4; i++ {
		feed(c, run(0x400000, 2))
	}
	s := c.Finish()
	base := s.Cycles - s.IMissStallCycles
	if base != 2 {
		t.Errorf("throughput cycles = %d, want 2", base)
	}
}

func TestMissLatency(t *testing.T) {
	cfg := testConfig()
	c := New(cfg, nil)
	feed(c, run(0x400000, 8)) // one line, cold: L2 miss -> memory
	s := c.Finish()
	wantStall := cfg.L2Latency + cfg.MemLatency
	if s.IMissStallCycles != wantStall {
		t.Errorf("stall = %d, want %d", s.IMissStallCycles, wantStall)
	}

	// Second access to the same line: no stall.
	c2 := New(cfg, nil)
	feed(c2, run(0x400000, 8))
	before := c2.Finish().IMissStallCycles
	feed(c2, run(0x400000, 8))
	after := c2.Finish().IMissStallCycles
	if after != before {
		t.Errorf("re-fetch of resident line stalled (%d -> %d)", before, after)
	}
}

func TestL2HitCheaperThanMemory(t *testing.T) {
	cfg := testConfig()
	c := New(cfg, nil)
	feed(c, run(0x400000, 8))
	first := c.Finish().IMissStallCycles
	// Evict from L1I by filling its sets; 32KB 2-way with 32B lines =
	// 512 sets; lines mapping to set of 0x400000 are 512 lines apart.
	for i := 1; i <= 2; i++ {
		feed(c, run(0x400000+isa.Addr(i*512*isa.LineBytes), 8))
	}
	feed(c, run(0x400000, 8)) // L1 miss, L2 hit
	s := c.Finish()
	total := s.IMissStallCycles
	// The refetch must cost ~L2Latency, far below the memory trip.
	refetch := total - first - 2*(cfg.L2Latency+cfg.MemLatency)
	if refetch > cfg.L2Latency+2 || refetch < cfg.L2Latency-2 {
		t.Errorf("L2-hit refetch stall = %d, want ~%d", refetch, cfg.L2Latency)
	}
}

func TestPerfectICache(t *testing.T) {
	cfg := testConfig()
	cfg.PerfectICache = true
	c := New(cfg, prefetch.NewNL(4))
	feed(c, run(0x400000, 800))
	s := c.Finish()
	if s.ICacheMisses != 0 || s.IMissStallCycles != 0 {
		t.Errorf("perfect I-cache missed: %+v", s)
	}
	if s.TotalPrefetch().Issued != 0 {
		t.Error("perfect I-cache issued prefetches")
	}
	if s.Cycles != 200 {
		t.Errorf("cycles = %d, want exactly 200 (throughput only)", s.Cycles)
	}
}

func TestPrefetchHitAccounting(t *testing.T) {
	cfg := testConfig()
	c := New(cfg, prefetch.NewNL(2))
	// Fetch line 0: NL prefetches lines 1 and 2. Burn enough cycles
	// (via an already-resident loop) for them to arrive, then fetch
	// line 1: a pref hit.
	feed(c, run(0x400000, 8))
	feed(c, trace.Event{Kind: trace.KindLoop, Addr: 0x400000, N: 8, Iters: 100})
	feed(c, run(0x400020, 8))
	s := c.Finish()
	// line 0 issues {1,2}; the later fetch of line 1 issues {2,3} of
	// which 2 squashes: 3 issued in total.
	if s.NL.Issued != 3 {
		t.Fatalf("issued = %d, want 3", s.NL.Issued)
	}
	if s.NL.PrefHits != 1 {
		t.Errorf("pref hits = %d, want 1 (stats: %+v)", s.NL.PrefHits, s.NL)
	}
	if s.ICacheMisses != 1 {
		t.Errorf("demand misses = %d, want 1 (only line 0)", s.ICacheMisses)
	}
}

func TestDelayedHitAccounting(t *testing.T) {
	cfg := testConfig()
	c := New(cfg, prefetch.NewNL(2))
	// Fetch line 0 then line 1 immediately: the prefetch is still in
	// flight -> delayed hit with a partial stall.
	feed(c, run(0x400000, 8))
	feed(c, run(0x400020, 8))
	s := c.Finish()
	if s.NL.DelayedHits != 1 {
		t.Errorf("delayed hits = %d, want 1 (%+v)", s.NL.DelayedHits, s.NL)
	}
	if s.ICacheMisses != 1 {
		t.Errorf("misses = %d, want 1", s.ICacheMisses)
	}
}

func TestUselessPrefetchAccounting(t *testing.T) {
	cfg := testConfig()
	c := New(cfg, prefetch.NewNL(1))
	// Prefetch line 1 (via fetching line 0), never touch it, then force
	// its eviction by filling its set (512-set 2-way).
	feed(c, run(0x400000, 8))
	conflict := isa.Addr(0x400020)
	for i := 1; i <= 4; i++ {
		// Touch conflicting lines in set 1 without triggering more NL
		// into that set... NL prefetches follow each fetch, so drain
		// the queue by spacing sets widely: lines at set 1 + k*512.
		feed(c, run(conflict+isa.Addr(i*512*isa.LineBytes), 8))
	}
	s := c.Finish()
	if s.NL.Useless == 0 {
		t.Errorf("no useless prefetches recorded: %+v", s.NL)
	}
}

func TestSquashResident(t *testing.T) {
	cfg := testConfig()
	c := New(cfg, prefetch.NewNL(2))
	// Lines 0,1,2: the NL windows overlap, so the requests for lines
	// already in flight must squash (2 of them).
	feed(c, run(0x400000, 24))
	s := c.Finish()
	if s.NL.Squashed != 2 {
		t.Errorf("squashed = %d, want 2 (%+v)", s.NL.Squashed, s.NL)
	}
}

func TestCallReturnRAS(t *testing.T) {
	cfg := testConfig()
	c := New(cfg, nil)
	call := trace.Event{Kind: trace.KindCall, Addr: 0x400010, Target: 0x402000, CallerStart: 0x400000}
	ret := trace.Event{Kind: trace.KindReturn, Addr: 0x402000, Target: 0x400014, CallerStart: 0x400000}
	feed(c, call)
	feed(c, ret)
	s := c.Finish()
	if s.Calls != 1 || s.Returns != 1 {
		t.Fatalf("calls/returns = %d/%d", s.Calls, s.Returns)
	}
	if s.RASMispredicts != 0 {
		t.Errorf("RAS mispredicted a matched call/return")
	}

	// A return with no matching call mispredicts.
	c2 := New(cfg, nil)
	feed(c2, ret)
	if c2.Finish().RASMispredicts != 1 {
		t.Error("unmatched return not counted as mispredict")
	}
}

func TestContextSwitchFlushesRAS(t *testing.T) {
	cfg := testConfig()
	c := New(cfg, nil)
	call := trace.Event{Kind: trace.KindCall, Addr: 0x400010, Target: 0x402000, CallerStart: 0x400000}
	ret := trace.Event{Kind: trace.KindReturn, Addr: 0x402000, Target: 0x400014, CallerStart: 0x400000}
	feed(c, call)
	feed(c, trace.Event{Kind: trace.KindSwitch})
	feed(c, ret)
	s := c.Finish()
	if s.RASMispredicts != 1 {
		t.Errorf("RAS survived a context switch: %+v", s.RASMispredicts)
	}
	if s.Switches != 1 {
		t.Errorf("switches = %d", s.Switches)
	}
}

func TestBranchPenalty(t *testing.T) {
	cfg := testConfig()
	c := New(cfg, nil)
	// An always-taken branch: after warmup no penalty.
	br := trace.Event{Kind: trace.KindBranch, Addr: 0x400010, Target: 0x400080, Taken: true}
	for i := 0; i < 10; i++ {
		feed(c, br)
	}
	cyclesAfterWarmup := c.Cycle()
	for i := 0; i < 10; i++ {
		feed(c, br)
	}
	steady := c.Cycle() - cyclesAfterWarmup
	if steady != 10*cfg.TakenBranchBubble {
		t.Errorf("steady-state taken-branch cost = %d, want %d", steady, 10*cfg.TakenBranchBubble)
	}
}

func TestDataSideAccounting(t *testing.T) {
	cfg := testConfig()
	c := New(cfg, nil)
	feed(c, trace.Event{Kind: trace.KindData, Addr: 0x40000000, N: 64, Taken: true})
	s := c.Finish()
	if s.DLineAccesses != 2 || s.DCacheMisses != 2 {
		t.Fatalf("data accesses/misses = %d/%d, want 2/2", s.DLineAccesses, s.DCacheMisses)
	}
	// Resident now.
	feed(c, trace.Event{Kind: trace.KindData, Addr: 0x40000000, N: 64})
	s = c.Finish()
	if s.DCacheMisses != 2 {
		t.Errorf("re-access missed: %d", s.DCacheMisses)
	}
}

func TestDirtyWritebackTraffic(t *testing.T) {
	cfg := testConfig()
	c := New(cfg, nil)
	// Write a line, then evict it with 2 conflicting reads (2-way):
	// the writeback shows up as an extra L2 transfer.
	feed(c, trace.Event{Kind: trace.KindData, Addr: 0x40000000, N: 8, Taken: true})
	feed(c, trace.Event{Kind: trace.KindData, Addr: 0x40000000 + 512*32, N: 8})
	feed(c, trace.Event{Kind: trace.KindData, Addr: 0x40000000 + 2*512*32, N: 8})
	feed(c, trace.Event{Kind: trace.KindData, Addr: 0x40000000 + 3*512*32, N: 8})
	s := c.Finish()
	if s.L2Accesses != 5 { // 4 fills + 1 writeback
		t.Errorf("L2 accesses = %d, want 5", s.L2Accesses)
	}
}

func TestLoopAccounting(t *testing.T) {
	cfg := testConfig()
	c := New(cfg, nil)
	feed(c, trace.Event{Kind: trace.KindLoop, Addr: 0x400000, N: 16, Iters: 50})
	s := c.Finish()
	if s.Instructions != 800 {
		t.Errorf("instructions = %d, want 800", s.Instructions)
	}
	if s.ICacheMisses != 2 { // 16 instructions = 2 lines, fetched once
		t.Errorf("misses = %d, want 2", s.ICacheMisses)
	}
	if s.Branches != 50 || s.BranchMispredicts != 1 {
		t.Errorf("branches/mispredicts = %d/%d, want 50/1", s.Branches, s.BranchMispredicts)
	}
}

func TestFIFONoPriorityDelaysDemand(t *testing.T) {
	// A burst of prefetches ahead of a demand miss must delay the
	// demand miss (the §3.3 no-priority FIFO).
	cfg := testConfig()
	quiet := New(cfg, nil)
	feed(quiet, run(0x400000, 8))
	baseline := quiet.Finish().IMissStallCycles

	busy := New(cfg, prefetch.NewNL(8))
	feed(busy, run(0x500000, 8)) // miss + 8 prefetches queued
	feed(busy, run(0x400000, 8)) // demand miss queues behind them
	total := busy.Finish().IMissStallCycles
	// The second demand miss alone must have cost more than an
	// uncontended one.
	if total <= 2*baseline {
		t.Errorf("demand miss not delayed by prefetch queue: total=%d baseline=%d", total, baseline)
	}
}

func TestCGPOnCallWiring(t *testing.T) {
	// The CPU must forward call/return events to the prefetcher with
	// the *predicted* caller start from the RAS.
	cfg := testConfig()
	rec := &recordingPrefetcher{}
	c := New(cfg, rec)
	feed(c, trace.Event{Kind: trace.KindCall, Addr: 0x400010, Target: 0x402000, CallerStart: 0x400000})
	feed(c, trace.Event{Kind: trace.KindReturn, Addr: 0x402000, Target: 0x400014, CallerStart: 0x400000})
	if len(rec.calls) != 1 || rec.calls[0] != 0x402000 {
		t.Errorf("OnCall targets = %#v", rec.calls)
	}
	if len(rec.returns) != 1 || rec.returns[0] != 0x400000 {
		t.Errorf("OnReturn predicted caller starts = %#v", rec.returns)
	}
}

// TestFetchHookSeesNewDetailedLines: the fetch hook runs on a detailed
// fetch whose line differs from the previous detailed fetch's. A
// functional-warming span runs no hook and a skipped span decodes
// nothing, so neither moves the line the next detailed fetch is
// compared with.
func TestFetchHookSeesNewDetailedLines(t *testing.T) {
	rec := &recordingPrefetcher{}
	c := New(testConfig(), rec)
	c.EnableSampling()
	c.BeginSpan(trace.SpanDetailWarm)
	feed(c, run(0x400000, 8), run(0x400000, 4)) // line A, then A again
	c.BeginSpan(trace.SpanFunctionalWarm)
	feed(c, run(0x400100, 8)) // line B, warming only
	c.BeginSpan(trace.SpanMeasure)
	feed(c, run(0x400100, 8)) // B is new against A
	c.SkipSpan(100, 400)
	c.BeginSpan(trace.SpanDetailWarm)
	feed(c, run(0x400100, 8)) // B again across the skip
	c.Finish()
	if want := []isa.Addr{0x400000, 0x400100}; !slices.Equal(rec.fetches, want) {
		t.Errorf("fetch hook saw lines %#x, want %#x", rec.fetches, want)
	}
}

type recordingPrefetcher struct {
	fetches []isa.Addr
	calls   []isa.Addr
	returns []isa.Addr
}

func (r *recordingPrefetcher) OnFetch(line isa.Addr, _ prefetch.Issue) {
	r.fetches = append(r.fetches, line)
}
func (r *recordingPrefetcher) OnCall(target, _ isa.Addr, _ prefetch.Issue) {
	r.calls = append(r.calls, target)
}
func (r *recordingPrefetcher) OnReturn(predCaller, _ isa.Addr, _ prefetch.Issue) {
	r.returns = append(r.returns, predCaller)
}

func TestDemandPriorityBypassesQueue(t *testing.T) {
	// With the ablation on, a demand miss behind a prefetch burst costs
	// no more than an uncontended one.
	cfg := testConfig()
	cfg.DemandPriority = true
	quiet := New(cfg, nil)
	feed(quiet, run(0x400000, 8))
	baseline := quiet.Finish().IMissStallCycles

	busy := New(cfg, prefetch.NewNL(8))
	feed(busy, run(0x500000, 8))
	firstStall := busy.Finish().IMissStallCycles
	feed(busy, run(0x400000, 8))
	secondStall := busy.Finish().IMissStallCycles - firstStall
	if secondStall > baseline {
		t.Errorf("prioritized demand miss stalled %d > uncontended %d", secondStall, baseline)
	}
}

func TestPrefetchIntoL2Only(t *testing.T) {
	cfg := testConfig()
	cfg.PrefetchIntoL2Only = true
	c := New(cfg, prefetch.NewNL(2))
	// Fetch line 0; the prefetches for lines 1,2 warm L2 only. Burn
	// time, then fetch line 1: it must MISS in L1I but hit in L2.
	feed(c, run(0x400000, 8))
	feed(c, trace.Event{Kind: trace.KindLoop, Addr: 0x400000, N: 8, Iters: 200})
	feed(c, run(0x400020, 8))
	s := c.Finish()
	if s.NL.PrefHits != 0 || s.NL.DelayedHits != 0 {
		t.Errorf("L2-only prefetch produced L1 hits: %+v", s.NL)
	}
	if s.ICacheMisses != 2 {
		t.Errorf("misses = %d, want 2 (both lines miss L1I)", s.ICacheMisses)
	}
	// But the second demand miss must have been an L2 hit: memory trips
	// are line0's demand, lines 1-2's prefetches, and line 3's prefetch
	// (triggered by the second fetch) — line 1's demand is not among
	// them.
	if s.L2Misses != 4 {
		t.Errorf("L2 misses = %d, want 4", s.L2Misses)
	}
}

// TestPrefetchQueueCompaction drives a FIFO that never fully drains:
// every step pushes one inflight whose data arrives 1000 cycles later,
// so the newest entries are always pending. The ring must stabilize at
// the steady-state depth (~lat entries, rounded up to a power of two)
// instead of retaining the entire issue history.
func TestPrefetchQueueCompaction(t *testing.T) {
	c := New(testConfig(), prefetch.None{})
	const steps, lat = 4096, 1000
	maxLen := 0
	for i := 0; i < steps; i++ {
		line := isa.Addr(0x400000 + i*isa.LineBytes)
		c.fifo.push(inflight{line: line, readyAt: units.Cycles(i + lat)})
		c.cycle = units.Cycles(i)
		c.drainLoop()
		if len(c.fifo.buf) > maxLen {
			maxLen = len(c.fifo.buf)
		}
	}
	// Steady state keeps ~lat pending entries; the power-of-two ring
	// bounds the backing array at the next doubling instead of the full
	// history.
	if maxLen > 2*lat {
		t.Errorf("ring grew to %d entries (pending ~%d); FIFO not bounded", maxLen, lat)
	}
	// Let everything complete: the FIFO must empty and every line must
	// have been filled exactly once (no entries lost).
	c.cycle = steps + lat
	c.drainLoop()
	if !c.fifo.empty() || c.fifo.live != 0 {
		t.Errorf("FIFO not drained: depth=%d live=%d", c.fifo.tail-c.fifo.head, c.fifo.live)
	}
	filled := c.l1i.Stats().Inserts
	if filled != int64(steps) {
		t.Errorf("L1I insertions = %d, want %d", filled, steps)
	}
}
