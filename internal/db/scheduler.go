package db

import (
	"fmt"

	"cgp/internal/db/exec"
	"cgp/internal/db/heap"
	"cgp/internal/program"
	"cgp/internal/trace"
)

// Query is one workload query: a name and a plan builder. The builder
// returns the root iterator and, optionally, a temp file the results
// are materialized into (the Wisconsin queries are SELECT ... INTO).
type Query struct {
	Name  string
	Build func(e *Engine, ctx *exec.Context) (exec.Iterator, *heap.File, error)
}

// QueryResult reports one query's outcome.
type QueryResult struct {
	Name string
	Rows int64
}

// queryThread is the scheduler's per-query state.
type queryThread struct {
	q      Query
	tracer *trace.Tracer
	ctx    *exec.Context
	it     exec.Iterator
	target *heap.File
	rows   int64
	opened bool
	done   bool
	err    error
}

// RunConcurrent executes queries as cooperatively scheduled threads,
// emitting a single interleaved trace into out (which may be
// trace.Discard for correctness-only runs). Each thread gets its own
// tracer over img; the scheduler switches threads every quantum root
// tuples, emitting a context-switch event, exactly the shape of the
// paper's concurrently executing query workloads (§4.1). The tracers
// and the switch events append into one Batcher, which keeps them in
// stream order and hands out full batches. A nil img traces nothing.
func (e *Engine) RunConcurrent(queries []Query, img *program.Image, out trace.Consumer, quantum int, seed int64) ([]QueryResult, error) {
	if quantum <= 0 {
		quantum = 7
	}
	b := trace.NewBatcher(out)
	threads := make([]*queryThread, len(queries))
	for i, q := range queries {
		var tr *trace.Tracer
		if img != nil {
			tr = trace.NewTracer(img, b, seed+int64(i)*7919)
		}
		threads[i] = &queryThread{q: q, tracer: tr}
	}

	active := len(threads)
	for active > 0 {
		for i, th := range threads {
			if th.done {
				continue
			}
			e.Pr.SetTracer(th.tracer)
			if th.tracer != nil {
				b.Add(trace.Event{Kind: trace.KindSwitch, N: int32(i)})
			}
			e.runSlice(th, quantum)
			if th.done {
				active--
				if th.err != nil {
					e.Pr.SetTracer(nil)
					b.Flush()
					return nil, fmt.Errorf("db: query %s: %w", th.q.Name, th.err)
				}
			}
		}
	}
	e.Pr.SetTracer(nil)
	b.Flush()

	results := make([]QueryResult, len(threads))
	for i, th := range threads {
		results[i] = QueryResult{Name: th.q.Name, Rows: th.rows}
	}
	return results, nil
}

// runSlice advances one query by up to quantum root tuples.
func (e *Engine) runSlice(th *queryThread, quantum int) {
	fail := func(err error) {
		th.err = err
		th.done = true
	}
	if !th.opened {
		// The upper layers of Figure 1 run once per query: parse,
		// optimize, schedule, then begin execution.
		txn := e.Txns.Begin()
		th.ctx = e.NewContext(txn)
		e.Pr.Enter(e.Fns.Exec.QueryParse)
		e.Pr.Work(420)
		e.Pr.Exit()
		e.Pr.Enter(e.Fns.Exec.QueryOptimize)
		e.Pr.Work(560)
		e.Pr.Exit()
		e.Pr.Enter(e.Fns.Exec.QuerySchedule)
		e.Pr.Work(120)
		e.Pr.Exit()
		it, target, err := th.q.Build(e, th.ctx)
		if err != nil {
			fail(err)
			return
		}
		th.it, th.target = it, target
		e.Pr.Enter(e.Fns.Exec.QueryExecute)
		e.Pr.Work(60)
		if err := th.it.Open(); err != nil {
			e.Pr.Exit()
			fail(err)
			return
		}
		th.opened = true
	}
	for n := 0; n < quantum; n++ {
		t, ok, err := th.it.Next()
		if err != nil {
			e.Pr.Exit() // QueryExecute
			fail(err)
			return
		}
		if !ok {
			if err := th.it.Close(); err != nil {
				e.Pr.Exit()
				fail(err)
				return
			}
			e.Pr.Exit() // QueryExecute
			if err := e.Txns.Commit(th.ctx.Txn); err != nil {
				fail(err)
				return
			}
			th.done = true
			return
		}
		th.rows++
		if th.target != nil {
			if _, err := th.target.CreateRec(th.ctx.Txn, t.Buf); err != nil {
				e.Pr.Exit()
				fail(err)
				return
			}
		}
	}
}
