package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cgp/internal/obs"
	"cgp/internal/trace"
)

// The query-tracing suite: wire propagation of trace IDs into spans
// and captures, byte-identity of untagged captures with tracing on,
// and chaos paths (disconnect, shed, panic) still producing terminal
// spans with the right status — all without goroutine or span-buffer
// leaks.

// startTracedServer builds a server with a fresh tracer and returns
// both plus a shutdown func that drains the server (so every ConnTrace
// has flushed) before the caller inspects spans. Shutdown is
// idempotent and also registered as a cleanup.
func startTracedServer(t *testing.T, opts Options) (*Server, *obs.QueryTracer, func()) {
	t.Helper()
	if opts.Trace == nil {
		opts.Trace = obs.NewQueryTracer(obs.QueryTraceOptions{})
	}
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	s := New(testEngine(t), opts)
	ctx, cancel := context.WithCancel(context.Background())
	if err := s.Start(ctx); err != nil {
		cancel()
		t.Fatal(err)
	}
	var once sync.Once
	shutdown := func() {
		once.Do(func() {
			cancel()
			s.Wait()
		})
	}
	t.Cleanup(shutdown)
	return s, opts.Trace, shutdown
}

// spansByID indexes finished spans by trace ID.
func spansByID(tr *obs.QueryTracer) map[uint64]obs.QuerySpanData {
	out := map[uint64]obs.QuerySpanData{}
	for _, sp := range tr.Spans() {
		out[sp.ID] = sp
	}
	return out
}

func TestTracePropagationTCP(t *testing.T) {
	leakCheck(t)
	lc := NewLiveCapture(CaptureOptions{SampleEvery: 1})
	s, tr, shutdown := startTracedServer(t, Options{Capture: lc})

	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	const base = uint64(7) << 32
	c.SetTraceBase(base)
	queries := []string{
		"SELECT COUNT(*) AS n FROM big1",
		"SELECT unique1 FROM big1 WHERE unique2 BETWEEN 3 AND 40",
		"SELECT two, COUNT(*) AS n FROM big1 GROUP BY two",
	}
	for i, q := range queries {
		if _, err := c.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got, want := c.LastTraceID(), base+uint64(i)+1; got != want {
			t.Fatalf("query %d trace ID = %#x, want %#x", i, got, want)
		}
	}
	// A prepared statement's Exec is traced like a direct query.
	st, err := c.Prepare("SELECT COUNT(*) AS n FROM small")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(); err != nil {
		t.Fatal(err)
	}
	execID := c.LastTraceID()
	c.Close()
	shutdown()

	want := map[uint64]bool{execID: true}
	for i := range queries {
		want[base+uint64(i)+1] = true
	}
	spans := spansByID(tr)
	for id := range want {
		sp, ok := spans[id]
		if !ok {
			t.Fatalf("no span for trace ID %016x (have %d spans)", id, len(spans))
		}
		if !sp.Tagged || sp.Status != obs.StatusOK {
			t.Fatalf("span %016x = tagged=%v status=%q, want tagged ok", id, sp.Tagged, sp.Status)
		}
		if sp.Total <= 0 {
			t.Fatalf("span %016x has non-positive total %d", id, sp.Total)
		}
		if sp.Stages[obs.StageDrain] <= 0 {
			t.Fatalf("span %016x drain stage = %d, want > 0", id, sp.Stages[obs.StageDrain])
		}
		if !strings.HasPrefix(sp.Conn, "conn-") {
			t.Fatalf("span %016x conn = %q", id, sp.Conn)
		}
	}

	// The sealed capture carries exactly the client's tags.
	rec, err := lc.Seal(nil)
	if err != nil {
		t.Fatal(err)
	}
	gotTags := map[uint64]bool{}
	if err := rec.Replay(trace.ConsumerFunc(func(evs []trace.Event) {
		for _, ev := range evs {
			if ev.Kind == trace.KindQueryTag {
				gotTags[uint64(ev.Addr)] = true
			}
		}
	})); err != nil {
		t.Fatal(err)
	}
	if len(gotTags) != len(want) {
		t.Fatalf("capture carries %d distinct tags, want %d", len(gotTags), len(want))
	}
	for id := range want {
		if !gotTags[id] {
			t.Fatalf("capture missing tag %016x", id)
		}
	}
}

// TestTraceUntaggedByteIdentity: with no tagged client connected, a
// capture sealed by a tracing server is byte-identical to one sealed
// by a trace-free server — server-minted span IDs must never perturb
// the deterministic artifact.
func TestTraceUntaggedByteIdentity(t *testing.T) {
	leakCheck(t)
	queries := []string{
		"SELECT COUNT(*) AS n FROM big1",
		"SELECT unique1 FROM big1 WHERE unique2 BETWEEN 3 AND 40",
		"SELECT two, COUNT(*) AS n FROM big1 GROUP BY two",
		"SELECT unique1 INTO TMP FROM big1 WHERE unique2 < 20",
	}
	capture := func(traced bool) []byte {
		lc := NewLiveCapture(CaptureOptions{SampleEvery: 1})
		opts := Options{Addr: "127.0.0.1:0", Capture: lc}
		if traced {
			opts.Trace = obs.NewQueryTracer(obs.QueryTraceOptions{})
		}
		s := New(testEngine(t), opts)
		ctx, cancel := context.WithCancel(context.Background())
		if err := s.Start(ctx); err != nil {
			cancel()
			t.Fatal(err)
		}
		c, err := Dial(s.Addr())
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		for _, q := range queries {
			if _, err := c.Query(q); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
		c.Close()
		cancel()
		s.Wait()
		var buf bytes.Buffer
		if _, err := lc.Seal(&buf); err != nil {
			t.Fatal(err)
		}
		if traced && opts.Trace.Traced() != int64(len(queries)) {
			t.Fatalf("traced server recorded %d spans, want %d", opts.Trace.Traced(), len(queries))
		}
		return buf.Bytes()
	}
	plain, traced := capture(false), capture(true)
	if len(plain) == 0 {
		t.Fatal("capture produced no bytes")
	}
	if !bytes.Equal(plain, traced) {
		t.Fatalf("untagged capture differs with tracing on: %d vs %d bytes", len(plain), len(traced))
	}
}

// TestTraceDisconnectFlushesSpans: a client that sends a query and
// hangs up before reading the response still gets its span flushed
// (connection teardown closes the ConnTrace); a half-sent frame whose
// decode never finished must produce no span at all.
func TestTraceDisconnectFlushesSpans(t *testing.T) {
	leakCheck(t)
	s, tr, shutdown := startTracedServer(t, Options{})

	raw, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	const id = uint64(0xabc)
	q := "SELECT COUNT(*) AS n FROM big1"
	frame := make([]byte, 0, frameHeaderLen+traceIDLen+len(q))
	frame = append(frame, 0, 0, 0, 0, 0)
	frame = appendTraceID(frame, id)
	frame = append(frame, q...)
	putFrameHeader(frame[:frameHeaderLen], msgQueryTraced, traceIDLen+len(q))
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	// Hang up without reading the result.
	raw.Close()

	// Header promising bytes that never arrive.
	raw2, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var hdr [frameHeaderLen]byte
	putFrameHeader(hdr[:], msgQueryTraced, traceIDLen+20)
	raw2.Write(hdr[:])
	raw2.Close()

	// Let the server accept both connections and their handlers run to
	// completion before shutting down: a handler that first sees the
	// canceled context, or a listener closed before Accept, would never
	// read the frame at all.
	deadline := time.Now().Add(5 * time.Second)
	for (s.connSeq.Load() < 2 || s.conns.Load() != 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	shutdown()
	spans := spansByID(tr)
	sp, ok := spans[id]
	if !ok {
		t.Fatalf("disconnected client's span %016x never flushed (have %d spans)", id, len(spans))
	}
	if !obs.KnownQueryStatuses[sp.Status] {
		t.Fatalf("span %016x has unknown status %q", id, sp.Status)
	}
	if len(spans) != 1 {
		t.Fatalf("half-sent frame produced a span: have %d spans, want 1", len(spans))
	}
}

// TestTraceShedSpans: queries refused by admission control end their
// spans with StatusShed, and the span stream agrees with the
// client-visible outcome tally.
func TestTraceShedSpans(t *testing.T) {
	leakCheck(t)
	s, tr, shutdown := startTracedServer(t, Options{MaxInflight: 1})

	const clients, perClient = 6, 8
	var (
		mu           sync.Mutex
		served, shed int
		unexpected   []error
	)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				mu.Lock()
				unexpected = append(unexpected, err)
				mu.Unlock()
				return
			}
			defer c.Close()
			c.SetTraceBase(uint64(id+1) << 32)
			for j := 0; j < perClient; j++ {
				_, err := c.Query("SELECT COUNT(*) AS n FROM big1 WHERE two = 0")
				mu.Lock()
				switch {
				case err == nil:
					served++
				case errors.Is(err, ErrOverloaded):
					shed++
				default:
					unexpected = append(unexpected, err)
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	shutdown()
	if len(unexpected) > 0 {
		t.Fatalf("non-overload failures: %v", unexpected)
	}
	var okSpans, shedSpans int
	for _, sp := range tr.Spans() {
		switch sp.Status {
		case obs.StatusOK:
			okSpans++
		case obs.StatusShed:
			shedSpans++
		default:
			t.Fatalf("span %016x has status %q, want ok or shed", sp.ID, sp.Status)
		}
	}
	if okSpans != served || shedSpans != shed {
		t.Fatalf("spans ok=%d shed=%d, clients saw ok=%d shed=%d", okSpans, shedSpans, served, shed)
	}
	if tr.Traced() != int64(clients*perClient) {
		t.Fatalf("traced %d spans, want %d", tr.Traced(), clients*perClient)
	}
}

// TestTracePanicSpan: a statement that panics inside the engine is
// isolated to its request AND leaves a span with StatusPanic — the
// trace must show what the process survived.
func TestTracePanicSpan(t *testing.T) {
	leakCheck(t)
	const poison = "SELECT COUNT(*) AS n FROM big1 WHERE ten = 9"
	testHookRun = func(src string) {
		if src == poison {
			panic("injected statement panic")
		}
	}
	defer func() { testHookRun = nil }()

	s, tr, shutdown := startTracedServer(t, Options{})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.SetTraceBase(0x100)
	if _, err := c.Query(poison); !errors.Is(err, ErrInternal) {
		t.Fatalf("poisoned query error = %v, want ErrInternal", err)
	}
	panicID := c.LastTraceID()
	// The connection survives the panic and keeps serving.
	if _, err := c.Query("SELECT COUNT(*) AS n FROM small"); err != nil {
		t.Fatalf("query after panic: %v", err)
	}
	okID := c.LastTraceID()
	c.Close()
	shutdown()

	spans := spansByID(tr)
	if sp := spans[panicID]; sp.Status != obs.StatusPanic {
		t.Fatalf("panicked span status = %q, want %q", sp.Status, obs.StatusPanic)
	}
	if sp := spans[okID]; sp.Status != obs.StatusOK {
		t.Fatalf("follow-up span status = %q, want %q", sp.Status, obs.StatusOK)
	}
}

// TestTraceMalformedTaggedFrame: a traced frame with a zero or
// truncated trace ID is a protocol violation — typed error, hang-up,
// no span.
func TestTraceMalformedTaggedFrame(t *testing.T) {
	leakCheck(t)
	s, tr, shutdown := startTracedServer(t, Options{})

	for _, payload := range [][]byte{
		append(appendTraceID(nil, 0), "SELECT 1 FROM small"...), // zero ID
		{0x01, 0x02, 0x03}, // truncated ID
	} {
		raw, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(raw)
		if _, _, err := c.roundTrip(msgQueryTraced, payload); !errors.Is(err, ErrMalformed) {
			t.Fatalf("malformed traced frame error = %v, want ErrMalformed", err)
		}
		c.Close()
	}
	shutdown()
	if n := tr.Traced(); n != 0 {
		t.Fatalf("malformed frames produced %d spans, want 0", n)
	}
}

// TestTraceSpanBufferBounded: the retained-span buffer refuses spans
// past Keep (counting them as dropped) instead of growing without
// bound; aggregation still sees every query.
func TestTraceSpanBufferBounded(t *testing.T) {
	leakCheck(t)
	tr := obs.NewQueryTracer(obs.QueryTraceOptions{Keep: 4})
	s, _, shutdown := startTracedServer(t, Options{Trace: tr})

	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.SetTraceBase(0x200)
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := c.Query("SELECT COUNT(*) AS n FROM small"); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	shutdown()

	if got := len(tr.Spans()); got != 4 {
		t.Fatalf("retained %d spans, want 4 (Keep)", got)
	}
	if tr.Traced() != n || tr.Dropped() != n-4 {
		t.Fatalf("traced=%d dropped=%d, want %d/%d", tr.Traced(), tr.Dropped(), n, n-4)
	}
}

// TestTraceHTTPPropagation: the HTTP path accepts and echoes
// X-CGP-Trace-ID, rejects malformed ones, and mints IDs for untagged
// requests.
func TestTraceHTTPPropagation(t *testing.T) {
	leakCheck(t)
	s, tr, shutdown := startTracedServer(t, Options{HTTPAddr: "127.0.0.1:0"})

	post := func(traceID string) (status int, echo string) {
		t.Helper()
		req, err := http.NewRequest("POST", "http://"+s.HTTPAddr()+"/query",
			strings.NewReader("SELECT COUNT(*) AS n FROM small"))
		if err != nil {
			t.Fatal(err)
		}
		if traceID != "" {
			req.Header.Set("X-CGP-Trace-ID", traceID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("X-CGP-Trace-ID")
	}
	status, echo := post("0000000000000bb8")
	if status != 200 || echo != "0000000000000bb8" {
		t.Fatalf("tagged POST = (%d, echo %q), want 200 with echo", status, echo)
	}
	status, echo = post("")
	if status != 200 || len(echo) != 16 || echo == "0000000000000000" {
		t.Fatalf("untagged POST = (%d, echo %q), want 200 with minted ID", status, echo)
	}
	if status, _ := post("xyz"); status != 400 {
		t.Fatalf("malformed trace header accepted: status %d", status)
	}
	if status, _ := post("0000000000000000"); status != 400 {
		t.Fatalf("zero trace header accepted: status %d", status)
	}
	shutdown()

	spans := spansByID(tr)
	sp, ok := spans[0xbb8]
	if !ok {
		t.Fatalf("no span for HTTP-tagged ID bb8 (have %d)", len(spans))
	}
	if !sp.Tagged || sp.Conn != "http" || sp.Status != obs.StatusOK {
		t.Fatalf("HTTP span = %+v, want tagged ok on conn http", sp)
	}
}
