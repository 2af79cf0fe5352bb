package server

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"cgp/internal/isa"
	"cgp/internal/obs"
	"cgp/internal/program"
	"cgp/internal/trace"
)

// LiveCapture records served traffic at the probe level (the
// Enter/Exit/Work/Data call sequence, session-tagged with KindSwitch)
// into a trace.Recorder, producing a sealed recording that replays as
// the "captured" workload.
//
// Backpressure policy: the query path NEVER blocks on the capture. A
// query's events accumulate in a private batch; at commit the whole
// balanced batch is handed to a bounded ring. If the ring is full the
// batch is dropped and counted — losing a query from the capture is
// acceptable, slowing the server is not. Dropping whole batches (not
// individual events) keeps the recording well-formed: every committed
// batch is a balanced Enter/Exit tree, so a capture with drops still
// replays cleanly, it just contains fewer queries.
//
// Overhead policy: the engine emits thousands of probe events per
// query, so recording every query costs a multiple of the query's own
// execution time — fine for scripted captures, unacceptable for a
// probe that stays attached to a production server (the serving-side
// bar from the AMC study: probes must not meaningfully slow the host).
// The default therefore samples at the query granularity: one query in
// SampleEvery is recorded completely (a whole balanced batch, so the
// captured queries replay with full fidelity), the rest skip the sink
// entirely and run at detached speed. Deterministic counter-based
// selection, not random — the capture domain is deterministic.
type CaptureOptions struct {
	// SampleEvery records every Nth query (default 64; the first query
	// is always recorded). 1 captures every query — scripted-session
	// tests and cgpserve's explicit recording runs want that; a
	// long-lived serving process does not (see the overhead policy
	// above and the capture-overhead guard in BENCH_server.json).
	SampleEvery int
	// MaxBatchEvents caps one query's event count (default 1<<17). A
	// query that overflows is dropped from the capture (and counted),
	// not truncated — truncation would unbalance the call tree.
	MaxBatchEvents int
	// RingBatches is the hand-off ring's capacity in query batches
	// (default 256).
	RingBatches int
	// Wall receives drop/commit counters; Log receives drop events.
	// Both may be nil.
	Wall *obs.WallRegistry
	Log  *obs.RunLog
}

// LiveCapture is safe for one producer (the executor serializes engine
// access, so probe callbacks are single-threaded) plus one internal
// drainer; Seal may be called from any goroutine once serving stopped.
type LiveCapture struct {
	opts CaptureOptions
	rec  *trace.Recorder
	sink captureSink
	seq  int64 // queries seen; producer-side only (under the executor lock)

	mu      sync.Mutex // orders commit-sends against Seal's close
	sealed  bool
	batches chan []trace.Event
	free    chan []trace.Event
	done    chan struct{}

	committed atomic.Int64
	drops     atomic.Int64
	overflows atomic.Int64
	skipped   atomic.Int64
}

// NewLiveCapture builds a capture and starts its drainer goroutine.
// Seal must be called exactly once to stop it and obtain the recording.
func NewLiveCapture(opts CaptureOptions) *LiveCapture {
	if opts.SampleEvery <= 0 {
		opts.SampleEvery = 64
	}
	if opts.MaxBatchEvents <= 0 {
		opts.MaxBatchEvents = 1 << 17
	}
	if opts.RingBatches <= 0 {
		opts.RingBatches = 256
	}
	lc := &LiveCapture{
		opts:    opts,
		rec:     trace.NewRecorder(),
		batches: make(chan []trace.Event, opts.RingBatches),
		free:    make(chan []trace.Event, opts.RingBatches+1),
		done:    make(chan struct{}),
	}
	lc.sink.max = opts.MaxBatchEvents
	go lc.drain()
	return lc
}

// drain moves committed batches into the recorder. It owns the
// recorder exclusively until the batches channel closes.
func (lc *LiveCapture) drain() {
	defer close(lc.done)
	for buf := range lc.batches {
		lc.rec.EventBatch(buf)
		lc.committed.Add(1)
		lc.recycle(buf)
	}
}

// getBuf reuses a drained batch buffer or allocates a fresh one.
func (lc *LiveCapture) getBuf() []trace.Event {
	select {
	case buf := <-lc.free:
		return buf[:0]
	default:
		return make([]trace.Event, 0, 1024)
	}
}

func (lc *LiveCapture) recycle(buf []trace.Event) {
	select {
	case lc.free <- buf[:0]:
	default:
	}
}

// begin starts capturing one query on the given session slot and
// returns the probe sink to attach, or nil when the sampler skips this
// query (the caller then leaves the probe detached and must not call
// commit/abort). The executor lock makes begin / commit / abort
// single-threaded.
//
// tag is the query's wire-carried trace ID, or 0 for untagged traffic.
// A nonzero tag is recorded as a KindQueryTag event right after the
// batch's KindSwitch, keying the batch to the serving-side span with
// the same ID. Untagged queries append nothing — a capture of untagged
// traffic stays byte-identical to one taken before tracing existed.
// Server-minted IDs never reach here: only the client's own tag earns
// a place in the recording.
func (lc *LiveCapture) begin(session int32, tag uint64) *captureSink {
	seq := lc.seq
	lc.seq++
	if seq%int64(lc.opts.SampleEvery) != 0 {
		lc.skipped.Add(1)
		lc.opts.Wall.Incr("capture_skipped_queries", 1)
		return nil
	}
	s := &lc.sink
	s.buf = append(lc.getBuf(), trace.Event{Kind: trace.KindSwitch, N: session})
	if tag != 0 {
		s.buf = append(s.buf, trace.Event{Kind: trace.KindQueryTag, Addr: isa.Addr(tag)})
	}
	s.session = session
	s.base = len(s.buf)
	s.depth = 0
	s.bad = false
	return s
}

// commit seals the current query's batch into the ring, or drops it:
// an unbalanced or overflowed batch is malformed (counted as
// overflow), a full ring means backpressure (counted as drop). Either
// way the query path continues immediately.
func (lc *LiveCapture) commit() {
	s := &lc.sink
	buf := s.buf
	s.buf = nil
	if s.bad || s.depth != 0 || len(buf) <= s.base {
		lc.overflows.Add(1)
		lc.opts.Wall.Incr("capture_overflow_batches", 1)
		lc.recycle(buf)
		return
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.sealed {
		lc.recycle(buf)
		return
	}
	select {
	case lc.batches <- buf:
	default:
		lc.drops.Add(1)
		lc.opts.Wall.Incr("capture_dropped_batches", 1)
		lc.opts.Log.Emit(obs.CaptureDropped, "capture", fmt.Sprintf("session-%d", s.session), "ring full")
		lc.recycle(buf)
	}
}

// abort discards the current query's batch (the query failed or was
// shed after begin).
func (lc *LiveCapture) abort() {
	s := &lc.sink
	buf := s.buf
	s.buf = nil
	lc.recycle(buf)
}

// Seal stops the drainer, finalizes the recording (CRC-framed like
// every trace artifact) and, when w is non-nil, writes the container
// to w. It must be called after serving has stopped; at most once.
func (lc *LiveCapture) Seal(w io.Writer) (*trace.Recording, error) {
	lc.mu.Lock()
	if lc.sealed {
		lc.mu.Unlock()
		return nil, fmt.Errorf("server: capture already sealed")
	}
	lc.sealed = true
	close(lc.batches)
	lc.mu.Unlock()
	<-lc.done
	rec, err := lc.rec.Finish()
	if err != nil {
		return nil, fmt.Errorf("server: sealing capture: %w", err)
	}
	if w != nil {
		if _, err := rec.WriteTo(w); err != nil {
			return nil, fmt.Errorf("server: writing capture: %w", err)
		}
	}
	lc.opts.Log.Emit(obs.CaptureSealed, "capture", "seal",
		fmt.Sprintf("%d queries, %d events, %d dropped", lc.committed.Load(), rec.Events(), lc.drops.Load()))
	return rec, nil
}

// Committed returns the number of query batches recorded so far.
func (lc *LiveCapture) Committed() int64 { return lc.committed.Load() }

// Drops returns the number of batches lost to ring backpressure.
func (lc *LiveCapture) Drops() int64 { return lc.drops.Load() }

// Overflows returns the number of batches dropped as malformed or
// over the per-query event cap.
func (lc *LiveCapture) Overflows() int64 { return lc.overflows.Load() }

// Skipped returns the number of queries the sampler left unrecorded
// (they ran at detached speed; see CaptureOptions.SampleEvery).
func (lc *LiveCapture) Skipped() int64 { return lc.skipped.Load() }

// captureSink is the probe.Sink that records one query's call
// sequence. It validates as it goes: an overflowing or unbalanced
// stream flips bad and the batch is discarded at commit — a malformed
// batch must never reach the recording.
type captureSink struct {
	buf     []trace.Event
	session int32
	// base is the header length (switch + optional query tag): a batch
	// that gained no probe events past it is empty and dropped.
	base  int
	depth int
	max   int
	bad   bool
}

// Enter implements probe.Sink.
func (s *captureSink) Enter(fn program.FuncID) {
	if s.bad {
		return
	}
	if len(s.buf) >= s.max {
		s.bad = true
		return
	}
	s.buf = append(s.buf, trace.Event{Kind: trace.KindProbeEnter, Fn: fn})
	s.depth++
}

// Exit implements probe.Sink.
func (s *captureSink) Exit() {
	if s.bad {
		return
	}
	if s.depth == 0 || len(s.buf) >= s.max {
		s.bad = true
		return
	}
	s.buf = append(s.buf, trace.Event{Kind: trace.KindProbeExit})
	s.depth--
}

// Work implements probe.Sink.
func (s *captureSink) Work(n int) {
	if s.bad {
		return
	}
	if s.depth == 0 || len(s.buf) >= s.max {
		s.bad = true
		return
	}
	s.buf = append(s.buf, trace.Event{Kind: trace.KindProbeWork, N: int32(n)})
}

// Data implements probe.Sink.
func (s *captureSink) Data(addr isa.Addr, n int, write bool) {
	if s.bad {
		return
	}
	if s.depth == 0 || len(s.buf) >= s.max {
		s.bad = true
		return
	}
	s.buf = append(s.buf, trace.Event{Kind: trace.KindProbeData, Addr: addr, N: int32(n), Taken: write})
}
