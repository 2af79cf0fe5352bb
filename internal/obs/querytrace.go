package obs

import (
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cgp/internal/units"
)

// Serving-path query tracing (DESIGN.md §16). Every served query gets
// one QuerySpan: a trace ID (wire-carried from a tagged client, or
// server-minted), the connection it arrived on, typed per-stage
// durations, and a terminal status. Spans are wall-clock-domain
// artifacts like everything else in this file's neighborhood: typed
// units.WallNanos end to end, exported only through the suppressed
// serialization boundary (wallInt), never into figures.
//
// The recording path is lock-cheap by construction:
//
//   - finished spans land in a per-connection buffer owned by the
//     connection's goroutine, flushed into the central collector one
//     batch (spanFlushBatch spans) at a time — one short mutex
//     acquisition per batch, not per query;
//   - stage/total latency histograms are fixed-size atomic buckets,
//     aggregated at flush time rather than per query: End touches one
//     shared counter, not seven histograms' cache lines, so concurrent
//     connections do not ping-pong the aggregation state (the /metrics
//     view lags a connection's last partial batch, which a scrape-based
//     consumer never notices);
//   - only slow-query log writes (rare by definition) lock per event.
//
// The slow-query log is JSONL: every span whose total latency reaches
// SlowThreshold streams out immediately, and a seeded reservoir sample
// of the normal (sub-threshold) spans is appended at Close so the log
// also shows what ordinary latency looked like.

// QueryStage indexes one serving stage of a query's lifetime.
type QueryStage int

const (
	// StageDecode: reading and parsing the request frame's payload
	// after its header arrived (or the HTTP body).
	StageDecode QueryStage = iota
	// StageAdmission: the admission-control gate (token bucket +
	// inflight bound).
	StageAdmission
	// StagePrep: SQL parse or prepared-statement cache lookup.
	StagePrep
	// StageExecute: transaction begin, plan and optimize.
	StageExecute
	// StageDrain: pulling the plan to exhaustion and building the
	// result.
	StageDrain
	// StageCapture: committing the query's probe batch to the live
	// capture ring.
	StageCapture
	// NumQueryStages is the stage count; spans carry a fixed array of
	// this many durations.
	NumQueryStages
)

var queryStageNames = [NumQueryStages]string{
	"decode", "admission", "prep", "execute", "drain", "capture",
}

// String returns the stage's snake-case name as used in the slow-query
// log and the /metrics stage label.
func (s QueryStage) String() string {
	if s < 0 || s >= NumQueryStages {
		return "?"
	}
	return queryStageNames[s]
}

// Query terminal statuses. The serving layer maps its typed errors
// onto these; ValidateQueryLog rejects anything outside the set.
const (
	StatusOK       = "ok"
	StatusError    = "error"
	StatusShed     = "shed"
	StatusDeadline = "deadline"
	StatusShutdown = "shutdown"
	StatusPanic    = "panic"
)

// KnownQueryStatuses is the validation whitelist for span statuses.
var KnownQueryStatuses = map[string]bool{
	StatusOK:       true,
	StatusError:    true,
	StatusShed:     true,
	StatusDeadline: true,
	StatusShutdown: true,
	StatusPanic:    true,
}

// spanFlushBatch is how many finished spans a connection buffers before
// flushing into the central collector under its mutex.
const spanFlushBatch = 64

// QueryTraceOptions configures a QueryTracer.
type QueryTraceOptions struct {
	// SlowThreshold is the total-latency bar at or above which a span
	// streams to the slow-query log immediately. Zero logs every span
	// (scripted captures and CI smoke want the full join table); set
	// LogW nil to disable the log entirely.
	SlowThreshold time.Duration
	// LogW receives the slow-query log as JSONL; nil disables it.
	LogW io.Writer
	// Keep bounds the spans retained in memory for the Perfetto export
	// and test inspection (default 4096; excess spans are counted as
	// dropped, never block).
	Keep int
	// Reservoir is the reservoir-sample size for normal (sub-threshold)
	// spans appended to the log at Close (default 64).
	Reservoir int
	// Seed seeds the reservoir's xorshift replacement (default 1). The
	// reservoir is wall-domain data, so the seed only makes test runs
	// repeatable; it carries no determinism contract.
	Seed uint64
}

// QuerySpanData is one finished span: the slow-query log line's
// in-memory form and the Perfetto export's source.
type QuerySpanData struct {
	ID     uint64
	Conn   string
	Tagged bool
	Status string
	Start  units.WallNanos
	Total  units.WallNanos
	Stages [NumQueryStages]units.WallNanos
}

// QueryTracer is the central per-process query-trace collector. A nil
// *QueryTracer absorbs all operations, so the serving path needs no
// enabled-checks beyond the nil span test it already pays.
type QueryTracer struct {
	opts   QueryTraceOptions
	slowNs units.WallNanos

	stageHist [NumQueryStages]wallHist
	totalHist wallHist

	traced  atomic.Int64
	slow    atomic.Int64
	dropped atomic.Int64

	mu     sync.Mutex
	kept   []QuerySpanData
	res    []QuerySpanData
	seen   int64
	rng    uint64
	closed bool
	log    jsonlWriter
}

// NewQueryTracer builds a tracer.
func NewQueryTracer(opts QueryTraceOptions) *QueryTracer {
	if opts.Keep <= 0 {
		opts.Keep = 4096
	}
	if opts.Reservoir <= 0 {
		opts.Reservoir = 64
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	return &QueryTracer{
		opts:   opts,
		slowNs: units.WallNanos(opts.SlowThreshold.Nanoseconds()),
		rng:    opts.Seed,
		log:    jsonlWriter{w: opts.LogW},
	}
}

// ConnTrace is one connection's span buffer. It is owned by the
// connection's goroutine — Begin/End/Close must not race — and is the
// only thing standing between the query path and the central mutex.
type ConnTrace struct {
	t   *QueryTracer
	cur QuerySpan
	buf []QuerySpanData
}

// Conn hands out a fresh per-connection buffer. Close must be called
// when the connection ends so buffered spans reach the collector.
func (t *QueryTracer) Conn() *ConnTrace {
	if t == nil {
		return nil
	}
	return &ConnTrace{t: t}
}

// Close flushes the connection's remaining spans.
func (ct *ConnTrace) Close() {
	if ct == nil || len(ct.buf) == 0 {
		return
	}
	ct.t.absorb(ct.buf)
	ct.buf = ct.buf[:0]
}

// QuerySpan is one query's in-flight trace. A nil *QuerySpan absorbs
// all operations. Spans are reused per connection: Begin resets the
// embedded span, End copies its data out, so the steady-state query
// path allocates nothing for tracing.
type QuerySpan struct {
	t     *QueryTracer
	ct    *ConnTrace
	data  QuerySpanData
	ended bool
}

// Begin opens a span for one query. ct may be nil (the HTTP path has
// no long-lived connection); the span then flushes directly on End.
func (t *QueryTracer) Begin(ct *ConnTrace, id uint64, conn string, tagged bool) *QuerySpan {
	if t == nil {
		return nil
	}
	sp := &QuerySpan{t: t}
	if ct != nil {
		sp = &ct.cur
		*sp = QuerySpan{t: t, ct: ct}
	}
	sp.data = QuerySpanData{ID: id, Conn: conn, Tagged: tagged, Start: nowWall()}
	return sp
}

// ID returns the span's trace ID (0 on a nil span).
func (sp *QuerySpan) ID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.data.ID
}

// Stage accumulates d into one stage's duration.
func (sp *QuerySpan) Stage(st QueryStage, d units.WallNanos) {
	if sp == nil || st < 0 || st >= NumQueryStages {
		return
	}
	if d < 0 {
		d = 0
	}
	sp.data.Stages[st] += d
}

// End closes the span with a terminal status, aggregates it into the
// stage histograms, and files it for the log and the export. A second
// End on the same span is ignored, so error paths can end defensively.
func (sp *QuerySpan) End(status string) {
	if sp == nil || sp.ended {
		return
	}
	sp.ended = true
	t := sp.t
	sp.data.Status = status
	sp.data.Total = nowWall() - sp.data.Start
	t.traced.Add(1)
	if t.opts.LogW != nil && sp.data.Total >= t.slowNs {
		t.slow.Add(1)
		t.mu.Lock()
		t.logLocked(&sp.data, true)
		t.mu.Unlock()
	}
	if sp.ct == nil {
		t.absorb([]QuerySpanData{sp.data})
		return
	}
	sp.ct.buf = append(sp.ct.buf, sp.data)
	if len(sp.ct.buf) >= spanFlushBatch {
		t.absorb(sp.ct.buf)
		sp.ct.buf = sp.ct.buf[:0]
	}
}

// absorb files a batch of finished spans into the histograms, the
// retained set and the normal-span reservoir — the one central lock the
// TCP path takes per spanFlushBatch queries. Histogram aggregation
// lives here rather than in End so its atomic cache lines are touched
// by one goroutine at a time instead of contended per query.
func (t *QueryTracer) absorb(batch []QuerySpanData) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range batch {
		sp := &batch[i]
		for st := range sp.Stages {
			t.stageHist[st].observe(sp.Stages[st])
		}
		t.totalHist.observe(sp.Total)
		if len(t.kept) < t.opts.Keep {
			t.kept = append(t.kept, *sp)
		} else {
			t.dropped.Add(1)
		}
		if t.opts.LogW == nil || sp.Total >= t.slowNs {
			continue
		}
		// Algorithm R over the normal spans: fill the reservoir, then
		// replace a seeded-random slot with probability size/seen.
		t.seen++
		if len(t.res) < t.opts.Reservoir {
			t.res = append(t.res, *sp)
		} else if j := t.next() % uint64(t.seen); j < uint64(t.opts.Reservoir) {
			t.res[j] = *sp
		}
	}
}

// next is a xorshift64 step for reservoir replacement.
func (t *QueryTracer) next() uint64 {
	x := t.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	t.rng = x
	return x
}

// Traced returns how many spans ended.
func (t *QueryTracer) Traced() int64 {
	if t == nil {
		return 0
	}
	return t.traced.Load()
}

// Slow returns how many spans reached the slow threshold.
func (t *QueryTracer) Slow() int64 {
	if t == nil {
		return 0
	}
	return t.slow.Load()
}

// Dropped returns how many finished spans the retained buffer refused
// (aggregation and logging still saw them).
func (t *QueryTracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Spans returns a copy of the retained spans, in finish order.
func (t *QueryTracer) Spans() []QuerySpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]QuerySpanData(nil), t.kept...)
}

// Close appends the reservoir-sampled normal spans to the slow-query
// log and returns the log's first write error, if any. Call it after
// serving stopped and every ConnTrace closed.
func (t *QueryTracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.closed {
		t.closed = true
		for i := range t.res {
			t.logLocked(&t.res[i], false)
		}
	}
	return t.log.err
}

// logLocked writes one span to the log; the caller holds t.mu.
func (t *QueryTracer) logLocked(sp *QuerySpanData, slow bool) {
	if t.opts.LogW == nil {
		return
	}
	e := QueryLogEntry{
		TraceID: FormatTraceID(sp.ID),
		Conn:    sp.Conn,
		Tagged:  sp.Tagged,
		Status:  sp.Status,
		Slow:    slow,
		TotalNs: wallInt(sp.Total),
		Stages:  make(map[string]int64, NumQueryStages),
	}
	for i := QueryStage(0); i < NumQueryStages; i++ {
		if d := sp.Stages[i]; d > 0 {
			e.Stages[i.String()] = wallInt(d)
		}
	}
	t.log.write(e)
}

// QueryLogEntry is one slow-query log line, as written and as parsed.
// TraceID is rendered as 16 lower-case hex digits so log greps and the
// replay join never fight integer formatting.
type QueryLogEntry struct {
	TraceID string           `json:"trace_id"`
	Conn    string           `json:"conn"`
	Tagged  bool             `json:"tagged"`
	Status  string           `json:"status"`
	Slow    bool             `json:"slow"`
	TotalNs int64            `json:"total_ns"`
	Stages  map[string]int64 `json:"stages"`
}

// ID parses the entry's trace ID, or returns 0 if it is malformed.
func (e *QueryLogEntry) ID() uint64 {
	id, _ := ParseTraceID(e.TraceID)
	return id
}

// FormatTraceID renders a trace ID the way every artifact carries it:
// 16 lower-case hex digits.
func FormatTraceID(id uint64) string { return fmt.Sprintf("%016x", id) }

// ParseTraceID parses a trace ID as FormatTraceID renders it: exactly
// 16 hex digits (either case; no sign, prefix or padding) and nonzero.
// It is the one parser for the HTTP trace header, slow-query log lines
// and their validator.
func ParseTraceID(s string) (uint64, error) {
	id, err := strconv.ParseUint(s, 16, 64)
	if len(s) != 16 || err != nil {
		return 0, fmt.Errorf("trace id %q: want 16 hex digits", s)
	}
	if id == 0 {
		return 0, fmt.Errorf("zero trace id")
	}
	return id, nil
}

// ValidateQueryLog parses a slow-query log and checks its schema:
// every line is valid JSON with a 16-hex-digit nonzero trace ID, a
// known terminal status, a non-negative total, and stage keys drawn
// from the stage-name set with non-negative durations. It returns the
// parsed entries so callers (the replay join, the CI smoke step) reuse
// the same parser the validator trusts.
func ValidateQueryLog(r io.Reader) ([]QueryLogEntry, error) {
	stageNames := map[string]bool{}
	for i := QueryStage(0); i < NumQueryStages; i++ {
		stageNames[i.String()] = true
	}
	return readJSONL(r, "query log", func(e *QueryLogEntry) error {
		if _, err := ParseTraceID(e.TraceID); err != nil {
			return fmt.Errorf("bad trace_id %q (want 16 hex digits, nonzero)", e.TraceID)
		}
		if !KnownQueryStatuses[e.Status] {
			return fmt.Errorf("unknown status %q", e.Status)
		}
		if e.Conn == "" {
			return fmt.Errorf("empty conn")
		}
		if e.TotalNs < 0 {
			return fmt.Errorf("negative total_ns")
		}
		for name, ns := range e.Stages {
			if !stageNames[name] {
				return fmt.Errorf("unknown stage %q", name)
			}
			if ns < 0 {
				return fmt.Errorf("negative %s duration", name)
			}
		}
		return nil
	})
}

// WriteChromeTrace exports the retained spans as Perfetto-loadable
// Chrome trace-event JSON: one lane-packed "query" umbrella event per
// span (args carry the trace ID, connection and status) with its stage
// events nested inside. Stages are laid out back to back from the
// span's start — the layout shows each stage's share, not the exact
// sub-microsecond gaps between them.
func (t *QueryTracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	recs := make([]spanRecord, len(spans))
	for i := range spans {
		sp := &spans[i]
		id := FormatTraceID(sp.ID)
		recs[i] = spanRecord{
			name: "query", cat: "query", key: id,
			start: sp.Start, dur: sp.Total,
			args:   [][2]string{{"trace_id", id}, {"conn", sp.Conn}, {"status", sp.Status}},
			stages: make([]spanStage, NumQueryStages),
		}
		for st := QueryStage(0); st < NumQueryStages; st++ {
			recs[i].stages[st] = spanStage{name: st.String(), dur: sp.Stages[st]}
		}
	}
	return writeChromeTrace(w, recs)
}

// ---- fixed-bucket wall-latency histogram ----

// histBuckets is the number of power-of-two buckets a wallHist keeps:
// bucket i counts observations v with bits.Len64(v) == i, i.e. bucket 0
// holds zeros and bucket i≥1 holds v in [2^(i-1), 2^i).
const histBuckets = 65

// wallHist is the package's one histogram: fixed power-of-two buckets
// over nanoseconds (see histBuckets). Observation is lock-free (atomic
// adds into a fixed array) — the per-query aggregation path takes no
// mutex.
type wallHist struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func (h *wallHist) observe(v units.WallNanos) {
	n := wallInt(v)
	if n < 0 {
		n = 0
	}
	h.count.Add(1)
	h.sum.Add(n)
	h.buckets[bits.Len64(uint64(n))].Add(1)
}

// quantile estimates the q-quantile in nanoseconds by cumulative
// bucket walk with linear interpolation inside the landing bucket.
func (h *wallHist) quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := 0; i < histBuckets; i++ {
		n := float64(h.buckets[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo, hi := bucketBounds(i)
			frac := (rank - cum) / n
			return lo + frac*(hi-lo)
		}
		cum += n
	}
	_, hi := bucketBounds(histBuckets - 1)
	return hi
}

// bucketBounds returns bucket i's value range [lo, hi): bucket 0 holds
// zeros, bucket i>=1 holds [2^(i-1), 2^i).
func bucketBounds(i int) (lo, hi float64) {
	if i <= 0 {
		return 0, 1
	}
	if i >= 63 {
		return float64(uint64(1) << 62), float64(uint64(1) << 63)
	}
	return float64(uint64(1) << (i - 1)), float64(uint64(1) << i)
}

// stageQuantiles are the fixed quantiles /metrics exposes per stage.
var stageQuantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}, {"0.999", 0.999},
}

// WritePrometheus writes the tracer's aggregates in Prometheus text
// exposition format: one summary per serving stage (plus "total") with
// p50/p95/p99/p999 quantiles, and the traced/slow/dropped counters.
func (t *QueryTracer) WritePrometheus(w io.Writer) error {
	if t == nil {
		return nil
	}
	var b []byte
	b = appendPromHeader(b, "cgp_query_stage_latency_ns",
		"Wall-clock latency of one serving stage, per query.", "summary")
	emit := func(stage string, h *wallHist) {
		for _, sq := range stageQuantiles {
			b = append(b, fmt.Sprintf("cgp_query_stage_latency_ns{stage=%q,quantile=%q} %g\n",
				promEscape(stage), sq.label, h.quantile(sq.q))...)
		}
		b = append(b, fmt.Sprintf("cgp_query_stage_latency_ns_sum{stage=%q} %d\n",
			promEscape(stage), h.sum.Load())...)
		b = append(b, fmt.Sprintf("cgp_query_stage_latency_ns_count{stage=%q} %d\n",
			promEscape(stage), h.count.Load())...)
	}
	for i := QueryStage(0); i < NumQueryStages; i++ {
		emit(i.String(), &t.stageHist[i])
	}
	emit("total", &t.totalHist)
	b = appendPromHeader(b, "cgp_queries_traced_total", "Query spans ended.", "counter")
	b = append(b, fmt.Sprintf("cgp_queries_traced_total %d\n", t.traced.Load())...)
	b = appendPromHeader(b, "cgp_slow_queries_total", "Query spans at or over the slow threshold.", "counter")
	b = append(b, fmt.Sprintf("cgp_slow_queries_total %d\n", t.slow.Load())...)
	b = appendPromHeader(b, "cgp_trace_spans_dropped_total", "Finished spans the retained buffer refused.", "counter")
	b = append(b, fmt.Sprintf("cgp_trace_spans_dropped_total %d\n", t.dropped.Load())...)
	_, err := w.Write(b)
	return err
}
