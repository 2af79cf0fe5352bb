package cpu_test

// Differential tests for the optimized simulation kernel: the live
// cpu.CPU (flat caches, inflight ring, batched dispatch) must produce
// *cpu.Stats identical field-for-field to internal/refsim's frozen
// pre-optimization kernel on the same event stream. The streams are
// seeded-random mixes of every event kind, driven through call-stack
// bookkeeping so calls and returns nest the way a real trace does.
// These tests live in an external package because refsim imports cpu.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cgp/internal/core"
	"cgp/internal/cpu"
	"cgp/internal/isa"
	"cgp/internal/prefetch"
	"cgp/internal/program"
	"cgp/internal/refsim"
	"cgp/internal/sample"
	"cgp/internal/trace"
)

const (
	genFuncs     = 32
	genFuncBytes = 0x400
	genTextBase  = isa.Addr(0x400000)
	genDataBase  = isa.Addr(0x800000)
)

func funcStart(fn int) isa.Addr {
	return genTextBase + isa.Addr(fn)*genFuncBytes
}

// genEvents synthesizes n events from seed, maintaining a call stack so
// KindCall/KindReturn carry consistent function identities — the CGP
// prefetcher's CGHC is only exercised by plausible call structure.
func genEvents(seed int64, n int) []trace.Event {
	rng := rand.New(rand.NewSource(seed))
	type frame struct {
		fn  int
		ret isa.Addr
	}
	stack := []frame{{fn: 0}}
	pc := funcStart(0)
	evs := make([]trace.Event, 0, n)
	for len(evs) < n {
		cur := stack[len(stack)-1].fn
		curStart := funcStart(cur)
		// Keep pc inside the current function's byte range.
		if pc < curStart || pc >= curStart+genFuncBytes-64 {
			pc = curStart + isa.Addr(rng.Intn(genFuncBytes/2))&^isa.Addr(isa.InstrBytes-1)
		}
		switch k := rng.Intn(100); {
		case k < 30: // run
			nInstr := int32(1 + rng.Intn(32))
			evs = append(evs, trace.Event{Kind: trace.KindRun, Addr: pc, N: nInstr})
			pc += isa.Addr(nInstr) * isa.InstrBytes
		case k < 40: // loop
			evs = append(evs, trace.Event{
				Kind: trace.KindLoop, Addr: pc,
				N: int32(1 + rng.Intn(16)), Iters: int32(1 + rng.Intn(20)),
			})
		case k < 55: // branch
			evs = append(evs, trace.Event{
				Kind: trace.KindBranch, Addr: pc,
				Target: curStart + isa.Addr(rng.Intn(genFuncBytes/2)),
				Taken:  rng.Intn(2) == 0,
			})
		case k < 70: // call
			callee := rng.Intn(genFuncs)
			evs = append(evs, trace.Event{
				Kind: trace.KindCall, Addr: pc,
				Target:      funcStart(callee),
				CallerStart: curStart,
				Fn:          program.FuncID(callee),
				Caller:      program.FuncID(cur),
			})
			stack = append(stack, frame{fn: callee, ret: pc + isa.InstrBytes})
			pc = funcStart(callee)
		case k < 80: // return
			if len(stack) < 2 {
				continue
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			caller := stack[len(stack)-1].fn
			evs = append(evs, trace.Event{
				Kind: trace.KindReturn, Addr: funcStart(top.fn),
				Target:      top.ret,
				CallerStart: funcStart(caller),
				Fn:          program.FuncID(top.fn),
				Caller:      program.FuncID(caller),
			})
			pc = top.ret
		case k < 95: // data
			evs = append(evs, trace.Event{
				Kind:  trace.KindData,
				Addr:  genDataBase + isa.Addr(rng.Intn(1<<16)),
				N:     int32(1 + rng.Intn(64)),
				Taken: rng.Intn(4) == 0, // write
			})
		default: // context switch
			evs = append(evs, trace.Event{Kind: trace.KindSwitch, N: int32(rng.Intn(4))})
		}
	}
	return evs
}

// kernelVariant is one (config, prefetcher) point of the differential
// sweep. Prefetchers are stateful, so each kernel gets its own instance
// built by the factory.
type kernelVariant struct {
	name string
	cfg  func() cpu.Config
	pf   func() prefetch.Prefetcher
}

// swProfile builds a software-CGP call-sequence table the way the
// profiling pass does, from a generated stream: each function's first
// callees, in call order.
func swProfile(seed int64) map[isa.Addr][]isa.Addr {
	seq := map[isa.Addr][]isa.Addr{}
	for _, ev := range genEvents(seed, 20000) {
		if ev.Kind == trace.KindCall && len(seq[ev.CallerStart]) < core.MaxCallees {
			seq[ev.CallerStart] = append(seq[ev.CallerStart], ev.Target)
		}
	}
	return seq
}

func variants() []kernelVariant {
	base := func() cpu.Config {
		cfg := cpu.DefaultConfig()
		cfg.SwitchPenalty = 24
		return cfg
	}
	nl4 := func() prefetch.Prefetcher { return prefetch.NewNL(4) }
	ranl42 := func() prefetch.Prefetcher { return prefetch.NewRunAheadNL(4, 2) }
	cgp4 := func() prefetch.Prefetcher { return core.New(core.DefaultConfig()) }
	profile := swProfile(99)
	swcgp4 := func() prefetch.Prefetcher { return core.NewSoftware(4, profile) }
	vs := []kernelVariant{
		{"none", base, func() prefetch.Prefetcher { return prefetch.None{} }},
		{"nl4", base, nl4},
		{"nl8", base, func() prefetch.Prefetcher { return prefetch.NewNL(8) }},
		{"ranl4-2", base, ranl42},
		{"cgp4", base, cgp4},
		{"swcgp4", base, swcgp4},
		{"nl4-demand-priority", func() cpu.Config {
			cfg := base()
			cfg.DemandPriority = true
			return cfg
		}, func() prefetch.Prefetcher { return prefetch.NewNL(4) }},
		{"nl4-l2only", func() cpu.Config {
			cfg := base()
			cfg.PrefetchIntoL2Only = true
			return cfg
		}, func() prefetch.Prefetcher { return prefetch.NewNL(4) }},
		{"cgp4-flush-ras", func() cpu.Config {
			cfg := base()
			cfg.FlushRASOnSwitch = true
			return cfg
		}, cgp4},
	}
	// L1Is far smaller than genEvents' 32 KB of code, so most lines the
	// CPU's squash filter remembers leave it by L1I eviction.
	for _, g := range []struct {
		name        string
		size, assoc int
	}{{"l1i2k-2way", 2 * 1024, 2}, {"l1i1k-dm", 1024, 1}} {
		small := func() cpu.Config {
			cfg := base()
			cfg.L1I.SizeBytes, cfg.L1I.Assoc = g.size, g.assoc
			return cfg
		}
		l2only := func() cpu.Config {
			cfg := small()
			cfg.PrefetchIntoL2Only = true
			return cfg
		}
		vs = append(vs,
			kernelVariant{"nl4-" + g.name, small, nl4},
			kernelVariant{"ranl4-2-" + g.name, small, ranl42},
			kernelVariant{"cgp4-" + g.name, small, cgp4},
			kernelVariant{"swcgp4-" + g.name, small, swcgp4},
			kernelVariant{"nl4-l2only-" + g.name, l2only, nl4},
		)
	}
	return vs
}

// TestDifferentialAgainstRefsim replays identical seeded streams through
// the optimized kernel and the frozen reference kernel and requires the
// full Stats structs to match exactly — cycles, every cache counter,
// every prefetch portion counter. Any behavioral drift introduced by the
// flat-cache or ring rewrites shows up here as a field diff.
func TestDifferentialAgainstRefsim(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				evs := genEvents(seed, 20000)
				opt := cpu.New(v.cfg(), v.pf())
				ref := refsim.New(v.cfg(), v.pf())
				opt.EventBatch(evs)
				for _, ev := range evs {
					ref.Event(ev)
				}
				so, sr := opt.Finish(), ref.Finish()
				if !reflect.DeepEqual(so, sr) {
					t.Fatalf("seed %d: optimized and reference kernels diverged\noptimized: %+v\nreference: %+v", seed, so, sr)
				}
			}
		})
	}
}

// TestLongLoopMatchesRefsim runs a loop whose cycles overflow what one
// op carries (4 bubble cycles per iteration, 2^31-1 iterations) between
// ordinary events: the front end must carry the excess exactly.
func TestLongLoopMatchesRefsim(t *testing.T) {
	cfg := cpu.DefaultConfig()
	cfg.TakenBranchBubble = 4
	evs := genEvents(13, 2000)
	evs = append(evs[:1000:1000], append([]trace.Event{{Kind: trace.KindLoop, Addr: 0x400100, N: 8, Iters: 1<<31 - 1}}, evs[1000:]...)...)
	opt, ref := cpu.New(cfg, prefetch.NewNL(4)), refsim.New(cfg, prefetch.NewNL(4))
	opt.EventBatch(evs)
	for _, ev := range evs {
		ref.Event(ev)
	}
	if so, sr := opt.Finish(), ref.Finish(); !reflect.DeepEqual(so, sr) {
		t.Fatalf("long loop diverged from refsim\noptimized: %+v\nreference: %+v", so, sr)
	}
}

// TestSquashFilterStaysExact drives sampled CPUs through every span
// kind and checks, after every detailed event, that each line the
// CPU's squash filter holds is resident in L1I or in flight. The
// differential test above covers full-detail replay against the
// oracle; this covers the span boundaries, where functional warming
// fills and evicts L1I without consulting the filter.
func TestSquashFilterStaysExact(t *testing.T) {
	evs := genEvents(7, 20000)
	kinds := []trace.SpanKind{trace.SpanDetailWarm, trace.SpanFunctionalWarm, trace.SpanMeasure,
		trace.SpanFunctionalWarm, trace.SpanSkip}
	for _, v := range variants() {
		c := cpu.New(v.cfg(), v.pf())
		c.EnableSampling()
		kind := trace.SpanDetailWarm
		for i := range evs {
			if i%500 == 0 {
				kind = kinds[(i/500)%len(kinds)]
				if kind == trace.SpanSkip {
					// A skipped stretch delivers no events; detail
					// resumes after it.
					c.SkipSpan(0, 0)
					kind = trace.SpanDetailWarm
				}
				c.BeginSpan(kind)
			}
			c.EventBatch(evs[i : i+1])
			if kind == trace.SpanFunctionalWarm {
				continue
			}
			if line, stale := c.StaleSquashEntry(); stale {
				t.Fatalf("%s: event %d: squash filter holds line %#x, neither resident nor in flight", v.name, i, line)
			}
		}
		c.Finish()
	}
}

// hidden puts a prefetcher behind the bare prefetch.Prefetcher
// interface, as a counting or timing wrapper does, so the CPU cannot
// see a prefetch.Sequential declaration and calls OnFetch instead.
type hidden struct{ prefetch.Prefetcher }

// TestFetchHookPathsAgree runs every built-in prefetcher twice: once as
// itself, so the CPU issues its declared sequential run, and once
// hidden, so the CPU calls its OnFetch on each new line. CGP runs at
// both degrees over the figure catalogue's CGHC geometries. In full
// detail and under a sampling plan, with attribution off and on, the
// two must give the same stats.
func TestFetchHookPathsAgree(t *testing.T) {
	type pfCase struct {
		name string
		pf   func() prefetch.Prefetcher
	}
	profile := swProfile(99)
	cases := []pfCase{
		{"none", func() prefetch.Prefetcher { return prefetch.None{} }},
		{"nl2", func() prefetch.Prefetcher { return prefetch.NewNL(2) }},
		{"nl4", func() prefetch.Prefetcher { return prefetch.NewNL(4) }},
		{"ranl4", func() prefetch.Prefetcher { return prefetch.NewRunAheadNL(4, 4) }},
		{"swcgp4", func() prefetch.Prefetcher { return core.NewSoftware(4, profile) }},
	}
	for _, lines := range []int{2, 4} {
		for _, g := range []core.Config{
			{L1Bytes: 1024}, {L1Bytes: 32 * 1024}, {L1Bytes: 1024, L2Bytes: 16 * 1024},
			{L1Bytes: 2 * 1024, L2Bytes: 32 * 1024}, {Infinite: true},
			{L1Bytes: 1024, Ways: 2}, {L1Bytes: 1024, Ways: 4},
			{L1Bytes: 2 * 1024, L2Bytes: 32 * 1024, Slots: 2}, {L1Bytes: 2 * 1024, L2Bytes: 32 * 1024, Slots: 4},
		} {
			g.Lines = lines
			cases = append(cases, pfCase{fmt.Sprintf("cgp %+v", g), func() prefetch.Prefetcher { return core.New(g) }})
		}
	}
	rec := trace.NewRecorder()
	rec.EventBatch(genEvents(21, 40000))
	sealed, err := rec.Finish()
	if err != nil {
		t.Fatal(err)
	}
	plan := sample.Config{PeriodEvents: 8000, FunctionalWarmEvents: 1500, DetailWarmEvents: 500, WindowEvents: 1000}.Plan(sealed.Events())
	for _, sampled := range []bool{false, true} {
		for _, attributed := range []bool{false, true} {
			run := func(pf prefetch.Prefetcher) *cpu.Stats {
				c := cpu.New(cpu.DefaultConfig(), pf)
				if attributed {
					c.EnableAttribution()
				}
				var err error
				if sampled {
					c.EnableSampling()
					err = sealed.ReplaySampledInto(plan, c)
				} else {
					err = sealed.Replay(c)
				}
				if err != nil {
					t.Fatal(err)
				}
				return c.Finish()
			}
			for _, pc := range cases {
				direct, wrapped := run(pc.pf()), run(hidden{pc.pf()})
				if !reflect.DeepEqual(direct, wrapped) {
					t.Errorf("%s (sampled %v, attribution %v): declared run and OnFetch diverged\ndeclared: %+v\nOnFetch:  %+v",
						pc.name, sampled, attributed, direct, wrapped)
				}
			}
		}
	}
}

// TestEventBatchMatchesPerEvent pins the batch entry point's contract:
// EventBatch over arbitrary batch boundaries must equal per-event
// delivery (batches of one) exactly.
func TestEventBatchMatchesPerEvent(t *testing.T) {
	evs := genEvents(11, 20000)
	perEvent := cpu.New(cpu.DefaultConfig(), prefetch.NewNL(4))
	for i := range evs {
		perEvent.EventBatch(evs[i : i+1])
	}
	want := perEvent.Finish()
	for _, batch := range []int{7, 512, 4096, len(evs)} {
		batched := cpu.New(cpu.DefaultConfig(), prefetch.NewNL(4))
		for i := 0; i < len(evs); i += batch {
			end := i + batch
			if end > len(evs) {
				end = len(evs)
			}
			batched.EventBatch(evs[i:end])
		}
		if !reflect.DeepEqual(want, batched.Finish()) {
			t.Fatalf("batch size %d: EventBatch diverged from per-event delivery", batch)
		}
	}
}

// TestSharedFrontendDoesNotAllocate extends the gate below to the path
// a runner's pass takes: one front end decodes each 512-event batch and
// several CPUs, attributed ones included, run its ops.
func TestSharedFrontendDoesNotAllocate(t *testing.T) {
	evs := genEvents(5, 20000)
	fe := cpu.NewFrontend(cpu.DefaultConfig())
	cpus := []*cpu.CPU{
		cpu.New(cpu.DefaultConfig(), prefetch.NewNL(4)),
		cpu.New(cpu.DefaultConfig(), core.New(core.DefaultConfig())),
	}
	cpus[1].EnableAttribution()
	for _, c := range cpus {
		c.UseFrontend(fe)
	}
	pass := func(evs []trace.Event) {
		for i := 0; i < len(evs); i += 512 {
			fe.Decode(evs[i:min(i+512, len(evs))])
			for _, c := range cpus {
				c.RunOps()
			}
		}
	}
	pass(evs) // warm: caches, rings, op buffer and attribution rows
	allocs := testing.AllocsPerRun(10, func() {
		pass(evs[:2000])
	})
	if allocs != 0 {
		t.Errorf("shared front end allocates %.1f times per 2000-event pass, want 0", allocs)
	}
}

// TestEventLoopDoesNotAllocate is the steady-state allocation regression
// gate: once the CPU is warmed (ring and index grown to their working
// size), consuming events must not allocate at all. This is what the old
// kernel's per-issue *inflight and per-fetch method-value closure cost.
func TestEventLoopDoesNotAllocate(t *testing.T) {
	evs := genEvents(5, 20000)
	c := cpu.New(cpu.DefaultConfig(), prefetch.NewNL(4))
	c.EventBatch(evs) // warm: caches filled, ring at steady-state size
	allocs := testing.AllocsPerRun(10, func() {
		c.EventBatch(evs[:2000])
	})
	if allocs != 0 {
		t.Errorf("event loop allocates %.1f times per 2000-event batch, want 0", allocs)
	}
}
