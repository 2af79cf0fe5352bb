package trace

import (
	"reflect"
	"testing"

	"cgp/internal/isa"
	"cgp/internal/program"
)

func testImage() (*program.Image, map[string]program.FuncID) {
	reg := program.NewRegistry()
	ids := map[string]program.FuncID{
		"main":   reg.Register("main", 800),
		"create": reg.Register("create", 600),
		"find":   reg.Register("find", 400),
		"lock":   reg.Register("lock", 200),
	}
	return program.LayoutO5(reg), ids
}

// traced drives the fixed execution on a tracer over img seeded seed,
// delivering its stream to out, and returns the tracer.
func traced(img *program.Image, out Consumer, seed int64, ids map[string]program.FuncID) *Tracer {
	b := NewBatcher(out)
	tr := NewTracer(img, b, seed)
	drive(tr, ids)
	b.Flush()
	return tr
}

// drive replays a fixed instrumented execution.
func drive(tr *Tracer, ids map[string]program.FuncID) {
	tr.Enter(ids["main"])
	for i := 0; i < 10; i++ {
		tr.Enter(ids["create"])
		tr.Enter(ids["find"])
		tr.Work(30)
		tr.Exit()
		tr.Enter(ids["lock"])
		tr.Exit()
		tr.Work(200)
		tr.Exit()
	}
	tr.Exit()
}

func TestDeterminism(t *testing.T) {
	img, ids := testImage()
	var a, b Capture
	traced(img, &a, 7, ids)
	traced(img, &b, 7, ids)
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("same seed and call sequence produced different traces")
	}
	var c Capture
	traced(img, &c, 8, ids)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestAddressesWithinFunctionBounds(t *testing.T) {
	img, ids := testImage()
	var rec Capture
	traced(img, &rec, 3, ids)
	for _, ev := range rec.Events {
		switch ev.Kind {
		case KindRun, KindLoop:
			p := img.Placement(ev.Fn)
			n := int(ev.N)
			lo, hi := p.Start, p.End()
			if ev.Addr < lo || ev.Addr+isa.Addr(isa.InstrRangeBytes(n)) > hi {
				t.Fatalf("%s event [%#x,+%d instr) outside %s [%#x,%#x)",
					ev.Kind, ev.Addr, n, img.Registry().Name(ev.Fn), lo, hi)
			}
		case KindCall:
			if ev.Target != img.Start(ev.Fn) {
				t.Fatalf("call target %#x != start of %s", ev.Target, img.Registry().Name(ev.Fn))
			}
		}
	}
}

func TestCallReturnPairing(t *testing.T) {
	img, ids := testImage()
	var rec Capture
	tr := traced(img, &rec, 3, ids)
	if tr.Depth() != 0 {
		t.Fatalf("stack depth %d after balanced drive", tr.Depth())
	}
	var stack []program.FuncID
	for _, ev := range rec.Events {
		switch ev.Kind {
		case KindCall:
			stack = append(stack, ev.Fn)
		case KindReturn:
			if len(stack) == 0 {
				t.Fatal("return with empty stack")
			}
			top := stack[len(stack)-1]
			if ev.Fn != top {
				t.Fatalf("return from %v, stack top %v", ev.Fn, top)
			}
			stack = stack[:len(stack)-1]
		}
	}
	if len(stack) != 0 {
		t.Fatalf("%d unmatched calls", len(stack))
	}
}

func TestReturnCarriesCallerStart(t *testing.T) {
	img, ids := testImage()
	var rec Capture
	traced(img, &rec, 3, ids)
	for _, ev := range rec.Events {
		if ev.Kind == KindReturn && ev.Caller != program.NoFunc {
			if ev.CallerStart != img.Start(ev.Caller) {
				t.Fatalf("return caller start %#x != start of %v", ev.CallerStart, ev.Caller)
			}
		}
	}
}

func TestInstructionAccounting(t *testing.T) {
	img, ids := testImage()
	var st Stats
	tr := traced(img, &st, 3, ids)
	if st.Instructions != tr.Instructions() {
		t.Errorf("stats %d != tracer %d instructions", st.Instructions, tr.Instructions())
	}
	if st.Calls != tr.Calls() || st.Calls != st.Returns {
		t.Errorf("calls %d, returns %d", st.Calls, st.Returns)
	}
	// 10 iterations × (create+find+lock) + main = 31 calls.
	if st.Calls != 31 {
		t.Errorf("calls = %d, want 31", st.Calls)
	}
	// Work(200) loops are compressed.
	if st.Loops == 0 {
		t.Error("no loop events for Work(200)")
	}
}

func TestInstrScaleReducesDynamicInstructions(t *testing.T) {
	reg := program.NewRegistry()
	ids := map[string]program.FuncID{
		"main":   reg.Register("main", 800),
		"create": reg.Register("create", 600),
		"find":   reg.Register("find", 400),
		"lock":   reg.Register("lock", 200),
	}
	prof := program.NewProfile()
	prof.AddCall(ids["main"], ids["create"])
	o5 := program.LayoutO5(reg)
	om := program.LayoutOM(reg, prof)

	var s5, sm Stats
	traced(o5, &s5, 3, ids)
	traced(om, &sm, 3, ids)
	ratio := float64(sm.Instructions) / float64(s5.Instructions)
	if ratio < 0.80 || ratio > 0.95 {
		t.Errorf("OM/O5 instruction ratio %.3f, want ~0.88", ratio)
	}
	// Straightening: fewer taken branches per instruction under OM.
	r5 := float64(s5.TakenBrs) / float64(s5.Instructions)
	rm := float64(sm.TakenBrs) / float64(sm.Instructions)
	if rm >= r5 {
		t.Errorf("OM taken-branch rate %.4f not below O5's %.4f", rm, r5)
	}
}

func TestHelperCyclingIsStable(t *testing.T) {
	reg := program.NewRegistry()
	parent := reg.Register("parent", 2000)
	callee := reg.Register("callee", 200)
	reg.GenerateHelpers(400, 700, 48, 200)
	img := program.LayoutO5(reg)
	helpers := reg.Info(parent).Helpers
	if len(helpers) < 2 {
		t.Skip("need at least 2 helpers")
	}

	sequence := func(seed int64) []program.FuncID {
		var rec Capture
		b := NewBatcher(&rec)
		tr := NewTracer(img, b, seed)
		tr.Enter(parent)
		for i := 0; i < 12; i++ {
			tr.Enter(callee)
			tr.Exit()
		}
		tr.Exit()
		b.Flush()
		var calls []program.FuncID
		for _, ev := range rec.Events {
			if ev.Kind == KindCall && ev.Caller == parent {
				isHelper := false
				for _, h := range helpers {
					if ev.Fn == h {
						isHelper = true
					}
				}
				if isHelper {
					calls = append(calls, ev.Fn)
				}
			}
		}
		return calls
	}
	calls := sequence(5)
	if len(calls) < 2 {
		t.Skip("not enough helper calls fired")
	}
	// Helpers appear in cycling order: h0, h1, h2, ... (possibly
	// skipping none since the index advances only when a helper fires).
	for i, c := range calls {
		want := helpers[i%len(helpers)]
		if c != want {
			t.Fatalf("helper call %d = %v, want %v (stable cycling)", i, c, want)
		}
	}
}

// TestTracerAppendDoesNotAllocate is the producer side's zero-alloc
// gate: once warm, a tracer appending into its run's Batcher over a
// no-op consumer allocates nothing per event.
func TestTracerAppendDoesNotAllocate(t *testing.T) {
	img, ids := testImage()
	b := NewBatcher(Discard)
	tr := NewTracer(img, b, 3)
	drive(tr, ids) // warm: the frame stack at its working depth
	allocs := testing.AllocsPerRun(20, func() { drive(tr, ids) })
	if allocs != 0 {
		t.Errorf("tracer allocates %.1f times per drive, want 0", allocs)
	}
}

func TestExitUnderflowPanics(t *testing.T) {
	img, _ := testImage()
	tr := NewTracer(img, NewBatcher(Discard), 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on Exit with empty stack")
		}
	}()
	tr.Exit()
}

func TestWorkWithoutFramePanics(t *testing.T) {
	img, _ := testImage()
	tr := NewTracer(img, NewBatcher(Discard), 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on Work with empty stack")
		}
	}()
	tr.Work(10)
}

// TestBatcherAndDiscard: a Batcher hands its consumer full batches of
// replayBatch in append order, Flush hands over the partial rest, and
// Discard takes any batch.
func TestBatcherAndDiscard(t *testing.T) {
	var got struct {
		Capture
		sizes []int
	}
	b := NewBatcher(ConsumerFunc(func(evs []Event) {
		got.sizes = append(got.sizes, len(evs))
		got.EventBatch(evs)
	}))
	want := recordTestEvents(2*replayBatch + 5)
	for _, ev := range want {
		b.Add(ev)
	}
	if !reflect.DeepEqual(got.sizes, []int{replayBatch, replayBatch}) {
		t.Errorf("batches before Flush = %v, want two full batches", got.sizes)
	}
	b.Flush()
	b.Flush() // nothing buffered: no empty batch
	if !reflect.DeepEqual(got.sizes, []int{replayBatch, replayBatch, 5}) {
		t.Errorf("batches = %v, want two full batches and the rest", got.sizes)
	}
	if !reflect.DeepEqual(got.Events, want) {
		t.Error("batcher reordered or dropped events")
	}
	Discard.EventBatch(want) // must not panic
}

func TestEventInstructions(t *testing.T) {
	if got := (Event{Kind: KindRun, N: 7}).Instructions(); got != 7 {
		t.Errorf("run instructions = %d", got)
	}
	if got := (Event{Kind: KindLoop, N: 10, Iters: 5}).Instructions(); got != 50 {
		t.Errorf("loop instructions = %d", got)
	}
	if got := (Event{Kind: KindCall}).Instructions(); got != 0 {
		t.Errorf("call instructions = %d", got)
	}
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		KindRun: "run", KindLoop: "loop", KindBranch: "br", KindCall: "call",
		KindReturn: "ret", KindData: "data", KindSwitch: "switch", Kind(99): "?",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}
