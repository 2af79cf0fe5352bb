package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"

	"cgp/internal/obs"
	"cgp/internal/units"
)

// The HTTP fallback: the same executor and admission gate behind
// POST /query, for clients without the binary protocol (curl, load
// generators, dashboards). /metrics serves Prometheus text exposition
// (wall-domain registry, per-stage latency summaries, serving gauges)
// and /healthz is a liveness probe.
//
// Tracing: a client may tag its query with an X-CGP-Trace-ID request
// header (16 hex digits, nonzero); untagged requests get a
// server-minted ID. Either way the response echoes the ID in the same
// header, so a curl user can grep the slow-query log for their query.

// traceIDHeader carries the trace ID on HTTP requests and responses.
const traceIDHeader = "X-CGP-Trace-ID"

// httpQueryResponse is the JSON shape of a /query answer.
type httpQueryResponse struct {
	Cols         []string   `json:"cols,omitempty"`
	Rows         [][]string `json:"rows,omitempty"`
	Materialized int64      `json:"materialized,omitempty"`
	Error        string     `json:"error,omitempty"`
}

// httpSession is the capture session slot HTTP queries record under:
// one shared slot past the TCP range, since HTTP requests carry no
// connection identity worth preserving.
const httpSession = maxSessionSlots

func (s *Server) startHTTP(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.opts.HTTPAddr)
	if err != nil {
		return fmt.Errorf("server: http listen: %w", err)
	}
	s.httpLn = ln
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		s.httpQuery(ctx, w, r)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.writeMetrics(w)
	})
	srv := &http.Server{
		Handler:           mux,
		BaseContext:       func(net.Listener) context.Context { return ctx },
		ReadHeaderTimeout: s.opts.FrameTimeout,
		ReadTimeout:       s.opts.IdleTimeout,
		WriteTimeout:      s.opts.WriteTimeout,
	}
	context.AfterFunc(ctx, func() { srv.Close() })
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		srv.Serve(ln)
	}()
	return nil
}

// httpConn is the connection label HTTP queries carry in their spans
// and run-log entries.
const httpConn = "http"

// httpQuery serves one SQL statement from the request body through
// serveQuery, the TCP path's serving function; ctx is the server's, so
// a query arriving during shutdown is refused as on TCP.
func (s *Server) httpQuery(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var decStart units.WallNanos
	if s.opts.Trace != nil {
		decStart = s.opts.Clock()
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestFrame+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if len(body) > maxRequestFrame {
		httpError(w, http.StatusRequestEntityTooLarge, ErrTooLarge)
		return
	}
	tag, tagged, err := parseHTTPTraceID(r.Header.Get(traceIDHeader))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	var sp *obs.QuerySpan
	if s.opts.Trace != nil {
		sp = s.beginSpan(nil, tag, tagged, httpConn, s.opts.Clock()-decStart)
		w.Header().Set(traceIDHeader, obs.FormatTraceID(sp.ID()))
	}
	res, err := s.serveQuery(ctx, httpConn, sp, func() (*Result, error) {
		return s.exec.query(r.Context(), httpSession, string(body), tag, sp)
	})
	if err != nil {
		httpError(w, httpStatusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(httpQueryResponse{
		Cols:         res.Cols,
		Rows:         res.Rows,
		Materialized: res.Materialized,
	})
}

// parseHTTPTraceID parses an X-CGP-Trace-ID request header: empty
// means untagged; anything else must parse as obs.ParseTraceID
// requires (16 hex digits, nonzero).
func parseHTTPTraceID(h string) (id uint64, tagged bool, err error) {
	if h == "" {
		return 0, false, nil
	}
	id, err = obs.ParseTraceID(h)
	if err != nil {
		return 0, false, fmt.Errorf("%w: %s: %v", ErrMalformed, traceIDHeader, err)
	}
	return id, true, nil
}

// writeMetrics serves the Prometheus exposition: wall-domain serving
// counters, the per-stage latency summaries, and point-in-time gauges
// (inflight queries, open connections, capture backlog counters).
func (s *Server) writeMetrics(w io.Writer) {
	s.opts.Wall.WritePrometheus(w)
	s.opts.Trace.WritePrometheus(w)
	var b []byte
	b = obs.AppendPromGauge(b, "cgp_inflight_queries",
		"Queries past admission and not yet finished.", s.adm.inflight.Load())
	b = obs.AppendPromGauge(b, "cgp_open_conns",
		"Currently served TCP connections.", s.conns.Load())
	if lc := s.opts.Capture; lc != nil {
		b = obs.AppendPromGauge(b, "cgp_capture_committed_batches",
			"Query batches committed to the live capture.", lc.Committed())
		b = obs.AppendPromGauge(b, "cgp_capture_dropped_batches",
			"Query batches lost to capture ring backpressure.", lc.Drops())
		b = obs.AppendPromGauge(b, "cgp_capture_overflow_batches",
			"Query batches dropped as malformed or over the event cap.", lc.Overflows())
		b = obs.AppendPromGauge(b, "cgp_capture_skipped_queries",
			"Queries the capture sampler left unrecorded.", lc.Skipped())
	}
	w.Write(b)
}

func httpStatusFor(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrDeadline):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrShutdown):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(httpQueryResponse{Error: err.Error()})
}
