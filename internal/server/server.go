// Package server is the hardened serving front-end: a length-prefixed
// wire protocol over TCP (plus an HTTP fallback) in front of the
// instrumented database engine, with connection limits, a
// prepared-statement cache, per-query deadlines, token-bucket
// admission control, and an attachable live trace capture. It turns
// the simulated DBMS from a batch harness into something that serves
// real traffic — and, through LiveCapture, turns that traffic into
// replayable workloads for the prefetching experiments (DESIGN.md
// §15).
package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cgp/internal/db"
	"cgp/internal/obs"
	"cgp/internal/units"
)

// maxSessionSlots bounds the capture session-slot space. Connection
// ids map onto slots modulo this bound, so a long-lived capture stays
// replayable with a fixed tracer pool regardless of how many
// connections came and went.
const maxSessionSlots = 64

// Options configures a Server. Zero values get serving defaults.
type Options struct {
	// Addr is the TCP listen address (use "127.0.0.1:0" in tests).
	Addr string
	// HTTPAddr, when non-empty, also serves the HTTP fallback
	// (/query, /healthz, /metrics) on this address.
	HTTPAddr string

	// MaxConns bounds concurrently served connections; excess accepts
	// are refused with a typed overload error (default 64).
	MaxConns int
	// MaxInflight bounds concurrently admitted queries (default 8).
	MaxInflight int
	// RatePerSec is the token-bucket refill rate; 0 disables rate
	// limiting (the inflight bound still applies).
	RatePerSec float64
	// Burst is the token-bucket capacity (default RatePerSec).
	Burst float64

	// QueryDeadline is the per-query wall-clock budget (default 5s).
	QueryDeadline time.Duration
	// FrameTimeout bounds how long a frame's payload may trickle in
	// after its header arrived — the slow-loris defense (default 10s).
	FrameTimeout time.Duration
	// IdleTimeout bounds the wait for the next request header on an
	// idle connection (default 2m).
	IdleTimeout time.Duration
	// WriteTimeout bounds one response write (default 30s).
	WriteTimeout time.Duration

	// MaxResultRows caps a result set before encoding (default 1<<20).
	MaxResultRows int
	// PrepCap is the prepared-statement cache size (default 256).
	PrepCap int

	// Capture, when non-nil, records served queries at the probe level.
	Capture *LiveCapture
	// Wall and Log receive serving metrics and lifecycle events; both
	// may be nil.
	Wall *obs.WallRegistry
	Log  *obs.RunLog
	// Trace, when non-nil, records per-query stage spans and latency
	// percentiles (DESIGN.md §16). Every query gets a span: tagged
	// clients carry their own trace ID on the wire; untagged queries
	// get a server-minted ID (high bit set) that never enters the
	// capture, so untagged recordings stay byte-identical.
	Trace *obs.QueryTracer
	// Clock overrides the wall clock (tests); default is the host
	// clock.
	Clock func() units.WallNanos
}

func (o *Options) applyDefaults() {
	if o.MaxConns == 0 {
		o.MaxConns = 64
	}
	if o.MaxInflight == 0 {
		o.MaxInflight = 8
	}
	if o.QueryDeadline == 0 {
		o.QueryDeadline = 5 * time.Second
	}
	if o.FrameTimeout == 0 {
		o.FrameTimeout = 10 * time.Second
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 2 * time.Minute
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 30 * time.Second
	}
	if o.MaxResultRows == 0 {
		o.MaxResultRows = 1 << 20
	}
	if o.PrepCap == 0 {
		o.PrepCap = 256
	}
	if o.Clock == nil {
		o.Clock = nowWall
	}
}

// Server serves the wire protocol over one engine.
type Server struct {
	opts Options
	exec *executor
	adm  *admission

	ln      net.Listener
	httpLn  net.Listener
	wg      sync.WaitGroup
	conns   atomic.Int64
	connSeq atomic.Int64
	// traceSeq mints trace IDs for untagged queries. Minted IDs carry
	// the high bit, disjoint from any sane client-minted ID, and are
	// never recorded into the capture.
	traceSeq atomic.Uint64
}

// mintTraceID returns a fresh server-minted trace ID for an untagged
// query: high bit set, sequence in the low bits, never zero.
func (s *Server) mintTraceID() uint64 {
	return 1<<63 | s.traceSeq.Add(1)
}

// New builds a server over e. The engine must not be used concurrently
// by anything else while the server runs.
func New(e *db.Engine, opts Options) *Server {
	opts.applyDefaults()
	return &Server{
		opts: opts,
		exec: &executor{
			e:        e,
			prep:     newPrepCache(opts.PrepCap),
			capture:  opts.Capture,
			clock:    opts.Clock,
			deadline: wallDur(opts.QueryDeadline),
			maxRows:  opts.MaxResultRows,
			wall:     opts.Wall,
		},
		adm: newAdmission(opts.RatePerSec, opts.Burst, opts.MaxInflight, opts.Clock),
	}
}

// workloadTag is the run-log workload field for serving entries.
const workloadTag = "cgpserve"

// Start binds the listeners and begins accepting. It returns
// immediately; cancel ctx to stop, then Wait for connections to
// drain. Listeners are closed through context.AfterFunc, so
// cancellation unblocks Accept and every idle Read.
func (s *Server) Start(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return fmt.Errorf("server: listen: %w", err)
	}
	s.ln = ln
	context.AfterFunc(ctx, func() { ln.Close() })
	s.opts.Log.Emit(obs.ServerStarted, workloadTag, ln.Addr().String(), "")
	if s.opts.HTTPAddr != "" {
		if err := s.startHTTP(ctx); err != nil {
			ln.Close()
			return err
		}
	}
	s.wg.Add(1)
	go s.acceptLoop(ctx)
	return nil
}

// Serve is Start + block until ctx cancels + Wait.
func (s *Server) Serve(ctx context.Context) error {
	if err := s.Start(ctx); err != nil {
		return err
	}
	<-ctx.Done()
	s.Wait()
	return nil
}

// Wait blocks until the accept loops and every connection handler
// have exited (after ctx cancellation closed the listeners).
func (s *Server) Wait() {
	s.wg.Wait()
	addr := ""
	if s.ln != nil {
		addr = s.ln.Addr().String()
	}
	s.opts.Log.Emit(obs.ServerStopped, workloadTag, addr, "")
}

// Addr returns the bound TCP address (after Start).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// HTTPAddr returns the bound HTTP address, or "".
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

func (s *Server) acceptLoop(ctx context.Context) {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			// The listener is closed (shutdown) or broken; either way
			// this loop is done — conn handlers drain on their own.
			return
		}
		id := s.connSeq.Add(1)
		if s.conns.Add(1) > int64(s.opts.MaxConns) {
			s.conns.Add(-1)
			s.opts.Wall.Incr("conns_refused", 1)
			s.refuse(conn)
			continue
		}
		s.wg.Add(1)
		go s.handleConn(ctx, conn, id)
	}
}

// refuse sends a best-effort overload error and closes: a refused
// client learns why instead of seeing a bare RST.
func (s *Server) refuse(conn net.Conn) {
	conn.SetWriteDeadline(ioDeadline(s.opts.WriteTimeout))
	conn.Write(errorFrame(codeOverloaded, "connection limit reached"))
	conn.Close()
}

// errorFrame builds a complete msgError frame.
func errorFrame(code byte, msg string) []byte {
	buf := make([]byte, frameHeaderLen, frameHeaderLen+1+len(msg))
	buf = encodeError(buf, code, msg)
	putFrameHeader(buf[:frameHeaderLen], msgError, len(buf)-frameHeaderLen)
	return buf
}

// handleConn serves one connection until EOF, protocol violation,
// timeout or shutdown. All I/O is deadline-bounded, so no client —
// slow, dead, or malicious — can pin the handler forever.
func (s *Server) handleConn(ctx context.Context, conn net.Conn, id int64) {
	defer s.wg.Done()
	defer s.conns.Add(-1)
	defer conn.Close()
	// Shutdown unblocks any in-progress Read by closing the conn; the
	// returned stop releases the callback once the handler exits on
	// its own.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	connTag := fmt.Sprintf("conn-%d", id)
	s.opts.Log.Emit(obs.ConnOpened, workloadTag, connTag, conn.RemoteAddr().String())
	defer s.opts.Log.Emit(obs.ConnClosed, workloadTag, connTag, "")
	s.opts.Wall.Incr("conns_opened", 1)

	session := int32(id % maxSessionSlots)
	// ct buffers the connection's finished spans; Close on every exit
	// path flushes them to the tracer (terminal spans survive mid-query
	// disconnects and protocol violations).
	ct := s.opts.Trace.Conn()
	defer ct.Close()
	traced := s.opts.Trace != nil
	br := bufio.NewReaderSize(conn, 32<<10)
	hdr := make([]byte, frameHeaderLen)
	var payload []byte
	for {
		if ctx.Err() != nil {
			s.writeFrame(conn, errorFrame(codeShutdown, "server shutting down"))
			return
		}
		conn.SetReadDeadline(ioDeadline(s.opts.IdleTimeout))
		if _, err := io.ReadFull(br, hdr); err != nil {
			return // clean EOF, client death, or idle timeout
		}
		// The decode stage spans the payload read (after the header
		// arrived — idle wait is not decode time) through frame parsing
		// in handleMsg.
		var decStart units.WallNanos
		if traced {
			decStart = s.opts.Clock()
		}
		typ, n, err := parseFrameHeader(hdr, maxRequestFrame)
		if err != nil {
			// Protocol violation: report and hang up. The stream is
			// unsynchronized past this point, so serving on is unsafe.
			s.opts.Wall.Incr("frames_malformed", 1)
			s.writeFrame(conn, errorFrame(codeFor(err), err.Error()))
			return
		}
		// Slow-loris defense: the header promised n bytes; they must
		// arrive within FrameTimeout, not at one byte per minute.
		conn.SetReadDeadline(ioDeadline(s.opts.FrameTimeout))
		if cap(payload) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			s.opts.Wall.Incr("frames_timeout", 1)
			return
		}
		if typ == msgBye {
			return
		}
		var decode units.WallNanos
		if traced {
			decode = s.opts.Clock() - decStart
		}
		resp, fatal := s.handleMsg(ctx, session, connTag, typ, payload, ct, decode)
		if !s.writeFrame(conn, resp) {
			return
		}
		if fatal {
			return
		}
	}
}

// writeFrame writes one deadline-bounded response frame.
func (s *Server) writeFrame(conn net.Conn, frame []byte) bool {
	conn.SetWriteDeadline(ioDeadline(s.opts.WriteTimeout))
	_, err := conn.Write(frame)
	return err == nil
}

// handleMsg dispatches one request frame and returns the encoded
// response plus whether the connection must close (protocol
// violations). Queries pass admission control first; shed queries
// never touch the engine.
//
// The traced message types split off their 8-byte trace-ID prefix
// here; plain types get a server-minted ID (when tracing is on) with
// tag 0, so only client-carried IDs reach the capture.
func (s *Server) handleMsg(ctx context.Context, session int32, connTag string, typ byte, payload []byte, ct *obs.ConnTrace, decode units.WallNanos) (resp []byte, fatal bool) {
	var tag uint64
	tagged := false
	switch typ {
	case msgQueryTraced, msgExecTraced:
		id, rest, err := takeTraceID(payload)
		if err != nil {
			s.opts.Wall.Incr("frames_malformed", 1)
			return errorFrame(codeMalformed, err.Error()), true
		}
		tag, tagged, payload = id, true, rest
		if typ == msgQueryTraced {
			typ = msgQuery
		} else {
			typ = msgExec
		}
	}
	switch typ {
	case msgQuery:
		sp := s.beginSpan(ct, tag, tagged, connTag, decode)
		return resultFrame(s.serveQuery(ctx, connTag, sp, func() (*Result, error) {
			return s.exec.query(ctx, session, string(payload), tag, sp)
		})), false
	case msgExec:
		id, err := decodeStmtID(payload)
		if err != nil {
			return errorFrame(codeMalformed, err.Error()), true
		}
		sp := s.beginSpan(ct, tag, tagged, connTag, decode)
		return resultFrame(s.serveQuery(ctx, connTag, sp, func() (*Result, error) {
			return s.exec.execPrepared(ctx, session, id, tag, sp)
		})), false
	case msgPrepare:
		id, err := s.exec.prepare(string(payload))
		if err != nil {
			return errorFrame(codeQuery, err.Error()), false
		}
		buf := make([]byte, frameHeaderLen, frameHeaderLen+8)
		buf = encodeStmtID(buf, id)
		putFrameHeader(buf[:frameHeaderLen], msgPrepared, len(buf)-frameHeaderLen)
		return buf, false
	default:
		s.opts.Wall.Incr("frames_malformed", 1)
		return errorFrame(codeMalformed, fmt.Sprintf("unknown message type %q", typ)), true
	}
}

// beginSpan opens a query span (nil when tracing is off), minting a
// server-side trace ID for untagged queries, and books the already-
// measured decode stage. ct is nil for HTTP queries, whose span
// flushes straight to the tracer on End.
func (s *Server) beginSpan(ct *obs.ConnTrace, tag uint64, tagged bool, connTag string, decode units.WallNanos) *obs.QuerySpan {
	if s.opts.Trace == nil {
		return nil
	}
	id := tag
	if !tagged {
		id = s.mintTraceID()
	}
	sp := s.opts.Trace.Begin(ct, id, connTag, tagged)
	sp.Stage(obs.StageDecode, decode)
	return sp
}

// serveQuery serves one query for either transport: it refuses it
// during shutdown, passes it through admission control, runs it, and
// books its latency, its counters and its run-log event. Every query
// that reached dispatch ends its span with a terminal status, whatever
// path it dies on. The transport encodes the answer.
func (s *Server) serveQuery(ctx context.Context, connTag string, sp *obs.QuerySpan, run func() (*Result, error)) (*Result, error) {
	if ctx.Err() != nil {
		sp.End(obs.StatusShutdown)
		return nil, ErrShutdown
	}
	var admStart units.WallNanos
	if sp != nil {
		admStart = s.opts.Clock()
	}
	err := s.adm.admit()
	if sp != nil {
		sp.Stage(obs.StageAdmission, s.opts.Clock()-admStart)
	}
	if err != nil {
		s.opts.Wall.Incr("queries_shed", 1)
		s.opts.Log.Emit(obs.QueryShed, workloadTag, connTag, err.Error())
		sp.End(obs.StatusShed)
		return nil, err
	}
	defer s.adm.release()
	start := s.opts.Clock()
	res, err := run()
	s.opts.Wall.Observe("query_latency", s.opts.Clock()-start)
	sp.End(statusFor(err))
	if err != nil {
		s.opts.Wall.Incr("queries_failed", 1)
		return nil, err
	}
	s.opts.Wall.Incr("queries_served", 1)
	s.opts.Log.Emit(obs.QueryServed, workloadTag, connTag, "")
	return res, nil
}

// resultFrame encodes a served query's answer as a TCP response frame:
// its result, or the error frame its failure maps to.
func resultFrame(res *Result, err error) []byte {
	if err != nil {
		return errorFrame(codeFor(err), err.Error())
	}
	buf := make([]byte, frameHeaderLen, 4096)
	buf = encodeResult(buf, res)
	if len(buf)-frameHeaderLen > maxResponseFrame {
		return errorFrame(codeTooLarge, "result frame exceeds response bound")
	}
	putFrameHeader(buf[:frameHeaderLen], msgResult, len(buf)-frameHeaderLen)
	return buf
}
