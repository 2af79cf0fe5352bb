// Package trace defines the dynamic side of a simulated program: the
// event stream a run produces (instruction runs, loops, branches, calls,
// returns and data references) and the Tracer used to instrument the
// database engine so that executing real queries synthesizes a fetch
// address stream for the cycle simulator.
//
// The stream plays the role of the instrumented Alpha binaries the paper
// fed to SimpleScalar: every event carries concrete addresses from a
// program.Image, so the consumer (the CPU model) sees exactly what a
// fetch unit would see.
//
// A stream is handed on one way: in batches, through Consumer's one
// method, EventBatch. The producers of a live run (its tracers, the
// scheduler's context switches, a probe replay's tags) append into one
// shared Batcher, which hands the consumer full batches; a replay hands
// over its decode buffer. Recorder and Recording.WriteTo are the one
// way to write a trace file, and Load the one way to read one.
package trace

import (
	"cgp/internal/isa"
	"cgp/internal/program"
	"cgp/internal/units"
)

// Kind discriminates trace events.
type Kind uint8

const (
	// KindRun is a sequential fetch of N instructions starting at Addr.
	KindRun Kind = iota
	// KindLoop is a compressed loop: a body of N instructions at Addr
	// executed Iters times (with a backward taken branch per iteration).
	KindLoop
	// KindBranch is a conditional branch at Addr with outcome Taken; if
	// taken, fetch continues at Target.
	KindBranch
	// KindCall is a function call: control transfers to Target (the
	// start of function Fn). Addr is the address of the call
	// instruction; Addr+isa.InstrBytes is the return address. Caller and
	// CallerStart identify the calling function.
	KindCall
	// KindReturn is a return from function Fn (whose start is Addr) back
	// to Target inside Caller (whose start is CallerStart).
	KindReturn
	// KindData is a data reference of N bytes at Addr; Taken doubles as
	// the "is write" flag.
	KindData
	// KindSwitch marks a context switch between query threads. Thread
	// is carried in N.
	KindSwitch

	// Probe-level kinds record the instrumentation seam itself (the
	// probe.Probe call sequence) instead of the synthesized
	// instruction stream. A live server captures at this level so the
	// recording stays layout-independent: replaying it through a
	// Tracer over any image (ReplayProbe) regenerates the exact
	// address-level stream that image's layout implies. Function IDs
	// and data addresses are layout-invariant; everything else is
	// synthesized at replay time.

	// KindProbeEnter records probe.Enter(Fn).
	KindProbeEnter
	// KindProbeExit records probe.Exit().
	KindProbeExit
	// KindProbeWork records probe.Work(N).
	KindProbeWork
	// KindProbeData records probe.Data(Addr, N, write); Taken doubles
	// as the "is write" flag, as in KindData.
	KindProbeData

	// KindQueryTag tags the probe batch that follows with the
	// originating query's wire-carried trace ID (carried in Addr). It
	// appears only in live captures of *tagged* traffic, immediately
	// after the batch's KindSwitch — untagged clients produce captures
	// without any tag events, byte-identical to pre-tracing captures.
	// Replay passes the tag through so per-query attribution can join
	// simulated prefetch benefit to the serving side's wall-clock
	// latency for the same trace ID.
	KindQueryTag
)

// String returns a short mnemonic for k.
func (k Kind) String() string {
	switch k {
	case KindRun:
		return "run"
	case KindLoop:
		return "loop"
	case KindBranch:
		return "br"
	case KindCall:
		return "call"
	case KindReturn:
		return "ret"
	case KindData:
		return "data"
	case KindSwitch:
		return "switch"
	case KindProbeEnter:
		return "penter"
	case KindProbeExit:
		return "pexit"
	case KindProbeWork:
		return "pwork"
	case KindProbeData:
		return "pdata"
	case KindQueryTag:
		return "qtag"
	}
	return "?"
}

// Event is one element of the dynamic trace. Field meaning depends on
// Kind; see the Kind constants.
type Event struct {
	Addr        isa.Addr
	Target      isa.Addr
	CallerStart isa.Addr
	N           int32
	Iters       int32
	Fn          program.FuncID
	Caller      program.FuncID
	Kind        Kind
	Taken       bool
}

// Instructions returns how many dynamic instructions the event accounts
// for (calls, returns and branches are single instructions already
// counted inside their surrounding runs).
func (e Event) Instructions() units.Instrs {
	switch e.Kind {
	case KindRun:
		return units.Instrs(e.N)
	case KindLoop:
		return units.Instrs(int64(e.N) * int64(e.Iters))
	}
	return 0
}

// Consumer receives a stream of events in batches: the only consumer
// interface. Every producer hands its events over a batch at a time —
// the tracers of a run through their shared Batcher, replays straight
// from the decode buffer — so the dynamic dispatch is paid once per
// batch. The batch boundaries carry no meaning: a consumer must behave
// exactly as if the stream had arrived in any other split, and must not
// retain the slice past the call, because the producer reuses it.
type Consumer interface {
	EventBatch(evs []Event)
}

// ConsumerFunc adapts a function to the Consumer interface.
type ConsumerFunc func(evs []Event)

// EventBatch implements Consumer.
func (f ConsumerFunc) EventBatch(evs []Event) { f(evs) }

// Discard is a Consumer that drops all events.
var Discard Consumer = ConsumerFunc(func([]Event) {})

// Batcher is the one event buffer of a run: every producer of the run
// — its tracers, the scheduler's context switches, a probe replay's
// session and query tags — appends into it in stream order, and it
// hands the run's consumer replayBatch events at a time, the batch size
// every replay uses. The producer that owns the run calls Flush once it
// is done, to hand over the final partial batch.
type Batcher struct {
	out Consumer
	n   int
	buf [replayBatch]Event
}

// NewBatcher returns an empty buffer feeding out.
func NewBatcher(out Consumer) *Batcher { return &Batcher{out: out} }

// Add appends ev, handing the batch over once it is full.
//
//cgplint:hotpath
func (b *Batcher) Add(ev Event) {
	b.buf[b.n] = ev
	if b.n++; b.n == len(b.buf) {
		b.Flush()
	}
}

// Flush hands the buffered events to the consumer.
//
//cgplint:coldpath one consumer call per replayBatch appended events
func (b *Batcher) Flush() {
	if b.n == 0 {
		return
	}
	n := b.n
	b.n = 0
	b.out.EventBatch(b.buf[:n])
}
