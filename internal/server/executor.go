package server

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"cgp/internal/db"
	"cgp/internal/db/catalog"
	"cgp/internal/db/exec"
	"cgp/internal/db/heap"
	"cgp/internal/db/sql"
	"cgp/internal/db/txn"
	"cgp/internal/obs"
	"cgp/internal/units"
)

// executor runs queries against the engine. The engine (probe, arena,
// buffer pool) is not thread-safe, so a mutex serializes queries —
// concurrency lives in the connection layer; the storage layer sees
// one query at a time, exactly as the cooperative scheduler's threads
// do. Each query runs in its own transaction with the same probe
// bracketing sql.Run uses (parse / optimize / execute), so a captured
// session reproduces the call-graph shape of Figure 1.
//
// Robustness properties, in order of importance:
//   - a panic anywhere in parse/plan/execute is confined to the
//     request: the transaction aborts, the capture batch is discarded,
//     the connection gets a typed internal error, the process lives;
//   - a query that exceeds its wall-clock budget is aborted mid-drain
//     (checked every deadlinePollRows tuples) with ErrDeadline;
//   - result sets are row-capped before encoding (ErrTooLarge).
type executor struct {
	mu       sync.Mutex
	e        *db.Engine
	prep     *prepCache
	capture  *LiveCapture
	clock    func() units.WallNanos
	deadline units.WallNanos // per-query budget; <= 0 disables
	maxRows  int
	wall     *obs.WallRegistry

	// Drain scratch, reused query to query under mu: the result's cell
	// text and the end offset of each cell in it.
	text []byte
	ends []int
}

// deadlinePollRows is how many tuples flow between wall-clock and
// cancellation checks during a drain: rare enough to stay off the
// per-tuple cost, frequent enough to bound overshoot.
const deadlinePollRows = 64

// drainKeep bounds the drain scratch kept between queries: a result of
// more cells, or more bytes of cell text, leaves its scratch to the
// collector.
const drainKeep = 64 << 10

// parseCachedWork is the probe Work cost booked for a parse that was
// served from the prepared-statement cache (a hash lookup, not a full
// parse).
const parseCachedWork = 30

// testHookRun, when non-nil, runs at the top of every statement inside
// the panic-isolation scope. The chaos suite uses it to inject
// statement panics without needing an engine bug to lean on.
var testHookRun func(src string)

// query parses (or looks up), plans and executes src. tag is the
// query's wire-carried trace ID (0 for untagged traffic); sp is its
// serving span (nil when tracing is off).
func (x *executor) query(ctx context.Context, session int32, src string, tag uint64, sp *obs.QuerySpan) (*Result, error) {
	return x.run(ctx, session, src, nil, tag, sp)
}

// execPrepared runs a statement by cache handle; a handle the LRU has
// evicted gets ErrStaleStatement and the client re-prepares.
func (x *executor) execPrepared(ctx context.Context, session int32, id uint64, tag uint64, sp *obs.QuerySpan) (*Result, error) {
	x.mu.Lock()
	e, err := x.prep.lookupID(id)
	x.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return x.run(ctx, session, e.text, e.stmt, tag, sp)
}

// prepare parses src and caches it, returning the handle id.
func (x *executor) prepare(src string) (uint64, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if e, ok := x.prep.byText[src]; ok {
		x.prep.lru.MoveToFront(e.elem)
		return e.id, nil
	}
	stmt, err := sql.Parse(src)
	if err != nil {
		return 0, err
	}
	return x.prep.insert(src, stmt), nil
}

// run executes one statement under the engine lock. stmt, when
// non-nil, is a pre-parsed statement from the cache. tag (the
// wire-carried trace ID, 0 for untagged) keys the capture batch; sp,
// when non-nil, receives the prep/execute/drain/capture stage
// durations. The untraced path takes no extra clock reads: stamp is a
// nil-guarded clock, so sp == nil keeps the query path exactly as
// cheap as before tracing existed.
func (x *executor) run(ctx context.Context, session int32, src string, stmt *sql.SelectStmt, tag uint64, sp *obs.QuerySpan) (res *Result, err error) {
	x.mu.Lock()
	defer x.mu.Unlock()

	stamp := func() units.WallNanos {
		if sp == nil {
			return 0
		}
		return x.clock()
	}

	// begin returns nil when the sampler skips this query; the probe
	// then stays detached and the query runs at full speed.
	var capturing bool
	if x.capture != nil {
		if sink := x.capture.begin(session, tag); sink != nil {
			capturing = true
			x.e.Pr.SetSink(sink)
			defer x.e.Pr.SetSink(nil)
		}
	}
	var deadlineAt units.WallNanos
	if x.deadline > 0 {
		deadlineAt = x.clock() + x.deadline
	}

	var tx *txn.Txn
	fail := func(cause error) (*Result, error) {
		if tx != nil {
			x.e.Txns.Abort(tx)
		}
		if capturing {
			x.capture.abort()
		}
		return nil, cause
	}
	defer func() {
		if p := recover(); p != nil {
			// One poisoned statement kills one request, never the
			// process: abort the transaction, discard the capture
			// batch, surface a typed internal error.
			res, err = fail(fmt.Errorf("%w: query panicked: %v", ErrInternal, p))
		}
	}()
	if testHookRun != nil {
		testHookRun(src)
	}

	prepStart := stamp()
	pr, fns := x.e.Pr, x.e.Fns.Exec
	pr.Enter(fns.QueryParse)
	if stmt == nil {
		if cached := x.prep.lookupText(src); cached != nil {
			stmt = cached
			x.wall.Incr("prep_cache_hits", 1)
			pr.Work(parseCachedWork)
		} else {
			x.wall.Incr("prep_cache_misses", 1)
			pr.Work(60 + 2*len(src))
			parsed, perr := sql.Parse(src)
			if perr != nil {
				pr.Exit()
				sp.Stage(obs.StagePrep, stamp()-prepStart)
				return fail(perr)
			}
			x.prep.insert(src, parsed)
			stmt = parsed
		}
	} else {
		x.wall.Incr("prep_cache_hits", 1)
		pr.Work(parseCachedWork)
	}
	pr.Exit()
	sp.Stage(obs.StagePrep, stamp()-prepStart)

	execStart := stamp()
	tx = x.e.Txns.Begin()
	ectx := x.e.NewContext(tx)

	pr.Enter(fns.QueryOptimize)
	pr.Work(240 + 90*len(stmt.From) + 30*len(stmt.Where))
	it, into, err := sql.Plan(x.e, ectx, stmt)
	pr.Exit()
	sp.Stage(obs.StageExecute, stamp()-execStart)
	if err != nil {
		return fail(err)
	}

	drainStart := stamp()
	pr.Enter(fns.QueryExecute)
	res, err = x.drain(ctx, ectx, it, into, deadlineAt)
	pr.Exit()
	sp.Stage(obs.StageDrain, stamp()-drainStart)
	if err != nil {
		return fail(err)
	}
	if err := x.e.Txns.Commit(tx); err != nil {
		tx = nil
		return fail(err)
	}
	tx = nil
	// Queries are strictly serial here, so the transient arena rewinds
	// between them — a serving process must not grow simulated memory
	// per request served.
	x.e.Arena.Reset()
	if capturing {
		captureStart := stamp()
		x.capture.commit()
		sp.Stage(obs.StageCapture, stamp()-captureStart)
	}
	return res, nil
}

// drain pulls the plan to exhaustion, enforcing the wall-clock budget
// and cancellation every deadlinePollRows tuples. For SELECT INTO it
// replicates exec.Materialize (same probe brackets) so the stream a
// capture records matches the in-process engine's.
func (x *executor) drain(ctx context.Context, ectx *exec.Context, it exec.Iterator, into *heap.File, deadlineAt units.WallNanos) (*Result, error) {
	if into != nil {
		ectx.Pr.Enter(ectx.Fns.MatNext)
		defer ectx.Pr.Exit()
		ectx.Pr.Work(20)
	}
	if err := it.Open(); err != nil {
		return nil, err
	}
	text, ends := x.text[:0], x.ends[:0]
	var n int64
	for {
		if n%deadlinePollRows == 0 {
			if err := ctx.Err(); err != nil {
				it.Close()
				return nil, fmt.Errorf("%w: %v", ErrShutdown, err)
			}
			if deadlineAt > 0 && x.clock() > deadlineAt {
				it.Close()
				return nil, fmt.Errorf("%w after %d rows", ErrDeadline, n)
			}
		}
		t, ok, err := it.Next()
		if err != nil {
			it.Close()
			return nil, err
		}
		if !ok {
			break
		}
		n++
		if into != nil {
			if _, err := into.CreateRec(ectx.Txn, t.Buf); err != nil {
				it.Close()
				return nil, err
			}
			continue
		}
		if n > int64(x.maxRows) {
			it.Close()
			return nil, fmt.Errorf("%w: result exceeds %d rows", ErrTooLarge, x.maxRows)
		}
		text, ends = appendCells(text, ends, t)
	}
	if err := it.Close(); err != nil {
		return nil, err
	}
	if into != nil {
		return &Result{Materialized: n}, nil
	}
	cols := colNames(it.Schema())
	res := &Result{Cols: cols, Rows: rowsOf(text, ends, int(n), len(cols))}
	if cap(text) <= drainKeep && cap(ends) <= drainKeep {
		x.text, x.ends = text, ends
	}
	return res, nil
}

// colNames flattens a schema into its column-name list.
func colNames(s *catalog.Schema) []string {
	cols := make([]string, s.NumCols())
	for i := range cols {
		cols[i] = s.Col(i).Name
	}
	return cols
}

// appendCells renders one row for the wire: each cell's text goes on
// text and its end offset on ends. Tuples may alias operator state, so
// the cells are copied out here.
func appendCells(text []byte, ends []int, t catalog.Tuple) ([]byte, []int) {
	for i := 0; i < t.Schema.NumCols(); i++ {
		if t.Schema.Col(i).Type == catalog.Int {
			text = strconv.AppendInt(text, t.Int(i), 10)
		} else {
			text = append(text, t.StrBytes(i)...)
		}
		ends = append(ends, len(text))
	}
	return text, ends
}

// rowsOf cuts nrows rows of ncols cells out of appendCells' output.
// All the cells share one string and one slice.
func rowsOf(text []byte, ends []int, nrows, ncols int) [][]string {
	all := string(text)
	cells := make([]string, len(ends))
	start := 0
	for i, end := range ends {
		cells[i] = all[start:end]
		start = end
	}
	return cutRows(cells, nrows, ncols)
}
