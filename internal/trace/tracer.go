package trace

import (
	"math/rand"

	"cgp/internal/isa"
	"cgp/internal/program"
	"cgp/internal/units"
)

// Tracer converts the instrumented execution of one logical thread into
// a trace-event stream. The database engine calls Enter/Exit around each
// instrumented function, Work for straight-line or loop-shaped local
// computation, and Data for memory references; the tracer fills in the
// instruction-level detail (runs, branch points, loop back-edges) from
// the function's body model in the active program.Image.
//
// The synthesis is deterministic: a fixed seed plus an identical call
// sequence yields an identical event stream, so two images (O5 vs OM) of
// the same run are directly comparable.
type Tracer struct {
	img *program.Image
	out *Batcher
	rng *rand.Rand

	stack []frame

	// inHelper guards against helper calls emitting further helper
	// calls.
	inHelper bool

	// emitted counts dynamic instructions for quick sanity checks.
	emitted units.Instrs
	calls   int64
}

type frame struct {
	fn    program.FuncID
	place program.Placement
	// pos is the current instruction offset within the body.
	pos int
	// bodyInstr is the body length in instructions in this image.
	bodyInstr int
	// pathBase is the invocation-specific region of the body this
	// execution's control flow settles into. Different invocations take
	// different paths through a function (different predicates, case
	// arms, error checks), which is what gives real code its working-set
	// pressure; a fresh pathBase per invocation reproduces that.
	pathBase int
	// entryLen is the function's entry block (prologue + dispatch) in
	// instructions: always executed straight-line from offset 0, in any
	// layout. It is what a call-target prefetch can usefully cover.
	entryLen int
	// helpers is the function's private helper set (see
	// program.Registry.GenerateHelpers); helperIdx cycles through it in
	// a stable order, restarting each invocation.
	helpers   []program.FuncID
	helperIdx int
	// retTo is the return address recorded at call time.
	retTo isa.Addr
}

// NewTracer returns a tracer for one logical thread, appending into out
// using the layout and branch behaviour of img. Each thread of a
// simulated workload gets its own tracer (own stack, own PRNG) over the
// run's one Batcher, which keeps the threads' events in stream order.
func NewTracer(img *program.Image, out *Batcher, seed int64) *Tracer {
	return &Tracer{
		img: img,
		out: out,
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Image returns the image the tracer synthesizes addresses from.
func (t *Tracer) Image() *program.Image { return t.img }

// Instructions returns the number of dynamic instructions emitted so far.
func (t *Tracer) Instructions() units.Instrs { return t.emitted }

// Calls returns the number of call events emitted so far.
func (t *Tracer) Calls() int64 { return t.calls }

// Depth returns the current call-stack depth.
func (t *Tracer) Depth() int { return len(t.stack) }

// curAddr returns the address of the instruction at the frame's position.
func (f *frame) curAddr() isa.Addr {
	return f.place.Start + isa.Addr(isa.InstrRangeBytes(f.pos))
}

// scale applies the image's dynamic-instruction scale factor.
func (t *Tracer) scale(n int) int {
	if t.img.InstrScale == 1.0 {
		return n
	}
	s := int(float64(n) * t.img.InstrScale)
	if s < 1 {
		s = 1
	}
	return s
}

// Enter records a call to fn: the caller advances to its next call site,
// a call event is emitted, and a new frame is pushed.
func (t *Tracer) Enter(fn program.FuncID) {
	place := t.img.Placement(fn)
	callerFn := program.NoFunc
	var callerStart isa.Addr
	var callPC isa.Addr
	if len(t.stack) > 0 {
		t.maybeHelperCall()
		parent := &t.stack[len(t.stack)-1]
		t.advance(parent, t.callGap(parent))
		callerFn = parent.fn
		callerStart = parent.place.Start
		callPC = parent.curAddr()
	}
	t.calls++
	t.out.Add(Event{
		Kind:        KindCall,
		Addr:        callPC,
		Target:      place.Start,
		Fn:          fn,
		Caller:      callerFn,
		CallerStart: callerStart,
	})
	body := place.SizeBytes / isa.InstrBytes
	entryLen := 24 + int(siteHash(uint64(fn), 1)%49)
	if entryLen > body/2 {
		entryLen = body / 2
	}
	pathBase := 0
	if body > 96 {
		pathBase = entryLen + t.rng.Intn(body-entryLen-body/8)
	}
	t.stack = append(t.stack, frame{
		fn:        fn,
		place:     place,
		bodyInstr: body,
		pathBase:  pathBase,
		entryLen:  entryLen,
		helpers:   t.img.Registry().Info(fn).Helpers,
		retTo:     callPC + isa.InstrBytes,
	})
}

// maybeHelperCall emits a call/return to the current frame's next
// helper function. Helpers cycle in a fixed order per invocation, so a
// function's call sequence repeats across invocations — the
// predictability §3.1 describes.
func (t *Tracer) maybeHelperCall() {
	if t.inHelper || len(t.stack) == 0 {
		return
	}
	f := &t.stack[len(t.stack)-1]
	if len(f.helpers) == 0 || t.rng.Float64() >= 0.55 {
		return
	}
	h := f.helpers[f.helperIdx%len(f.helpers)]
	f.helperIdx++
	work := 6 + t.rng.Intn(18)
	t.inHelper = true
	t.Enter(h)
	t.Work(work)
	t.Exit()
	t.inHelper = false
}

// Exit records the return from the current function: a short epilogue
// run is emitted, then the return event, and the frame is popped.
// Exit panics if no frame is active (an instrumentation bug).
func (t *Tracer) Exit() {
	if len(t.stack) == 0 {
		panic("trace: Exit with empty stack")
	}
	t.maybeHelperCall()
	f := &t.stack[len(t.stack)-1]
	t.advance(f, 3+t.rng.Intn(8))
	callerFn := program.NoFunc
	var callerStart isa.Addr
	if len(t.stack) > 1 {
		parent := &t.stack[len(t.stack)-2]
		callerFn = parent.fn
		callerStart = parent.place.Start
	}
	t.out.Add(Event{
		Kind:        KindReturn,
		Addr:        f.place.Start,
		Target:      f.retTo,
		Fn:          f.fn,
		Caller:      callerFn,
		CallerStart: callerStart,
	})
	t.stack = t.stack[:len(t.stack)-1]
}

// loopCompressThreshold is the Work size above which iterations are
// compressed into a single loop event instead of synthesized run by run.
const loopCompressThreshold = 96

// Work records n instructions of local computation in the current
// function. Small amounts are synthesized as straight-line runs with
// branch points; large amounts are compressed into a loop event (the
// same few cache lines executed repeatedly), which is both how such code
// behaves in an I-cache and cheap to simulate.
func (t *Tracer) Work(n int) {
	if len(t.stack) == 0 {
		panic("trace: Work with empty stack")
	}
	if n <= 0 {
		return
	}
	f := &t.stack[len(t.stack)-1]
	n = t.scale(n)
	if n >= loopCompressThreshold {
		body := 16 + t.rng.Intn(32)
		if body > f.bodyInstr {
			body = f.bodyInstr
		}
		iters := n / body
		rem := n - iters*body
		// Place the loop at the frame's current position, wrapped so the
		// whole body fits.
		if f.pos+body > f.bodyInstr {
			f.pos = t.wrapPoint(f)
			if f.pos+body > f.bodyInstr {
				f.pos = 0
			}
		}
		t.out.Add(Event{
			Kind:  KindLoop,
			Addr:  f.curAddr(),
			N:     int32(body),
			Iters: int32(iters),
			Fn:    f.fn,
		})
		t.emitted += units.Instrs(int64(body) * int64(iters))
		f.pos += body
		if rem > 0 {
			t.advanceScaled(f, rem)
		}
		return
	}
	t.advanceScaled(f, n)
}

// Data records a data reference of n bytes at addr. write marks stores.
func (t *Tracer) Data(addr isa.Addr, n int, write bool) {
	if n <= 0 {
		return
	}
	t.out.Add(Event{
		Kind:  KindData,
		Addr:  addr,
		N:     int32(n),
		Taken: write,
	})
}

// callGap draws the number of instructions executed in the caller before
// its next call site. Smaller functions have tighter call spacing.
func (t *Tracer) callGap(f *frame) int {
	span := f.bodyInstr / 4
	if span > 48 {
		span = 48
	}
	if span < 4 {
		span = 4
	}
	return 6 + t.rng.Intn(span)
}

// wrapPoint is where fetch resumes when the synthesized walk runs past
// the body: the top of this invocation's path region.
func (t *Tracer) wrapPoint(f *frame) int {
	if f.pathBase >= f.bodyInstr {
		return 0
	}
	return f.pathBase
}

// advance emits n instructions (after image scaling) of the frame's body
// as runs separated by branch points.
func (t *Tracer) advance(f *frame, n int) {
	t.advanceScaled(f, t.scale(n))
}

// advanceScaled emits exactly budget dynamic instructions.
func (t *Tracer) advanceScaled(f *frame, budget int) {
	for budget > 0 {
		if f.pos >= f.bodyInstr {
			f.pos = t.wrapPoint(f)
			if f.pos >= f.bodyInstr {
				f.pos = 0
			}
		}
		run := f.place.BranchEvery
		if run > budget {
			run = budget
		}
		if rem := f.bodyInstr - f.pos; run > rem {
			run = rem
		}
		if run <= 0 {
			run = 1
		}
		t.out.Add(Event{
			Kind: KindRun,
			Addr: f.curAddr(),
			N:    int32(run),
			Fn:   f.fn,
		})
		t.emitted += units.Instrs(run)
		f.pos += run
		budget -= run
		if budget <= 0 {
			break
		}
		// A conditional branch ends the run. Each static branch site has
		// a stable bias (most sites are strongly taken or strongly
		// not-taken), so the two-level predictor can learn it; the image's
		// TakenRate controls what fraction of sites are taken-biased,
		// which is how OM's straightening lowers the dynamic taken rate.
		//
		// The dispatch jump from the entry block into the invocation's
		// path region is different: it is the same control flow in every
		// layout (a switch arm or predicate outcome), so it ignores the
		// image's straightening. Within the entry block itself fetch is
		// straight-line in every layout.
		var taken bool
		switch {
		case f.pos < f.entryLen:
			taken = false
		case f.pos < f.pathBase:
			taken = t.rng.Float64() < 0.9
		default:
			// Long invocations move through several regions of the body
			// (loop bodies, case arms, cleanup blocks); the occasional
			// re-dispatch to a fresh region is the same control flow in
			// any layout.
			if f.bodyInstr > 96 && t.rng.Float64() < 0.08 {
				f.pathBase = f.entryLen + t.rng.Intn(f.bodyInstr-f.entryLen-f.bodyInstr/8)
				taken = true
			} else {
				taken = t.rng.Float64() < t.siteBias(f, f.pos)
			}
		}
		pc := f.place.Start + isa.Addr(isa.InstrRangeBytes(f.pos-1))
		var target isa.Addr
		if taken {
			f.pos = t.branchTarget(f)
			target = f.curAddr()
		}
		t.out.Add(Event{
			Kind:   KindBranch,
			Addr:   pc,
			Target: target,
			Taken:  taken,
			Fn:     f.fn,
		})
	}
}

// siteBias returns the taken probability of the static branch site at
// instruction offset pos of the frame's function. Sites are bimodal:
// a TakenRate-sized fraction are loop-edge-like (taken ~88% of the
// time); the rest are fall-through-biased (taken ~6%).
func (t *Tracer) siteBias(f *frame, pos int) float64 {
	h := siteHash(uint64(f.fn), uint64(pos))
	if float64(h%1024)/1024 < f.place.TakenRate {
		return 0.88
	}
	return 0.06
}

// siteHash mixes a function ID and offset into a stable pseudo-random
// value, independent of layout so the two images see the same sites.
func siteHash(fn, pos uint64) uint64 {
	x := fn*0x9E3779B97F4A7C15 ^ pos*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return x
}

// branchTarget picks where a taken intra-function branch lands. The
// first taken branch of an invocation jumps from the entry block into
// the invocation's path region; after that, mostly short forward skips
// with occasional backward loop edges.
func (t *Tracer) branchTarget(f *frame) int {
	if f.pos < f.pathBase {
		// Dispatch from the entry block (or an earlier region) into
		// this invocation's path.
		span := 48
		if rem := f.bodyInstr - f.pathBase; span > rem {
			span = rem
		}
		if span < 1 {
			span = 1
		}
		return f.pathBase + t.rng.Intn(span)
	}
	if t.rng.Float64() < 0.35 {
		// Backward: loop edge within the path region.
		back := 4 + t.rng.Intn(24)
		pos := f.pos - back
		if pos < f.pathBase {
			pos = f.pathBase
		}
		return pos
	}
	fwd := 2 + t.rng.Intn(16)
	pos := f.pos + fwd
	if pos >= f.bodyInstr {
		pos = t.wrapPoint(f)
	}
	return pos
}
