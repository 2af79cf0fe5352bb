package exec

import (
	"fmt"

	"cgp/internal/db/catalog"
	"cgp/internal/db/heap"
	"cgp/internal/db/index"
)

// SeqScan reads every record of a heap file in physical order.
type SeqScan struct {
	Ctx    *Context
	File   *heap.File
	Sch    *catalog.Schema
	cursor *heap.Scan
}

// NewSeqScan builds a sequential scan.
func NewSeqScan(ctx *Context, file *heap.File, sch *catalog.Schema) *SeqScan {
	return &SeqScan{Ctx: ctx, File: file, Sch: sch}
}

// Schema implements Iterator.
func (s *SeqScan) Schema() *catalog.Schema { return s.Sch }

// Open implements Iterator.
func (s *SeqScan) Open() error {
	s.Ctx.Pr.Enter(s.Ctx.Fns.SeqScanOpen)
	defer s.Ctx.Pr.Exit()
	s.Ctx.Pr.Work(24)
	s.cursor = s.File.OpenScan(s.Ctx.Txn)
	return nil
}

// Next implements Iterator.
func (s *SeqScan) Next() (catalog.Tuple, bool, error) {
	pr := s.Ctx.Pr
	pr.Enter(s.Ctx.Fns.SeqScanNext)
	pr.Work(12)
	rec, _, ok, err := s.cursor.Next()
	pr.Exit()
	if err != nil || !ok {
		return catalog.Tuple{}, false, err
	}
	return catalog.Tuple{Schema: s.Sch, Buf: rec}, true, nil
}

// Close implements Iterator.
func (s *SeqScan) Close() error {
	if s.cursor != nil {
		s.cursor.Close()
		s.cursor = nil
	}
	return nil
}

// IndexScan fetches records whose key column lies in [Lo, Hi] via a
// B+-tree, in key order. It serves both the clustered and non-clustered
// indexed selections of the Wisconsin benchmark; for the non-clustered
// case each qualifying RID costs a random record fetch, which is visible
// in the simulated data stream.
type IndexScan struct {
	Ctx    *Context
	Tree   *index.Tree
	File   *heap.File
	Sch    *catalog.Schema
	Lo, Hi int64

	cursor *index.Cursor
	buf    []byte
}

// NewIndexScan builds an index range scan.
func NewIndexScan(ctx *Context, tree *index.Tree, file *heap.File, sch *catalog.Schema, lo, hi int64) *IndexScan {
	return &IndexScan{Ctx: ctx, Tree: tree, File: file, Sch: sch, Lo: lo, Hi: hi}
}

// Schema implements Iterator.
func (s *IndexScan) Schema() *catalog.Schema { return s.Sch }

// Open implements Iterator.
func (s *IndexScan) Open() error {
	s.Ctx.Pr.Enter(s.Ctx.Fns.IndexScanOpen)
	defer s.Ctx.Pr.Exit()
	s.Ctx.Pr.Work(26)
	cur, err := s.Tree.OpenScan(s.Lo, s.Hi, true)
	if err != nil {
		return err
	}
	s.cursor = cur
	return nil
}

// Next implements Iterator.
func (s *IndexScan) Next() (catalog.Tuple, bool, error) {
	s.Ctx.Pr.Enter(s.Ctx.Fns.IndexScanNext)
	defer s.Ctx.Pr.Exit()
	s.Ctx.Pr.Work(14)
	_, rid, ok, err := s.cursor.Next()
	if err != nil || !ok {
		return catalog.Tuple{}, false, err
	}
	// The record lands in the buffer the previous row used: a returned
	// tuple is valid only until the next Next.
	rec, err := s.File.ReadRec(s.Ctx.Txn, rid, s.buf)
	if err != nil {
		return catalog.Tuple{}, false, fmt.Errorf("index scan: %w", err)
	}
	s.buf = rec
	return catalog.Tuple{Schema: s.Sch, Buf: s.buf}, true, nil
}

// Close implements Iterator.
func (s *IndexScan) Close() error {
	if s.cursor != nil {
		s.cursor.Close()
		s.cursor = nil
	}
	return nil
}

// Fetch looks up one key and returns the matching record (Wisconsin's
// single-tuple select).
func Fetch(ctx *Context, tree *index.Tree, file *heap.File, sch *catalog.Schema, key int64) (catalog.Tuple, bool, error) {
	ctx.Pr.Enter(ctx.Fns.IndexScanNext)
	defer ctx.Pr.Exit()
	ctx.Pr.Work(14)
	rid, err := tree.Search(key)
	if err != nil {
		return catalog.Tuple{}, false, nil // absent key is not an error here
	}
	rec, err := file.ReadRec(ctx.Txn, rid, nil)
	if err != nil {
		return catalog.Tuple{}, false, err
	}
	return catalog.Tuple{Schema: sch, Buf: rec}, true, nil
}

// Filter passes through tuples matching a predicate.
type Filter struct {
	Ctx   *Context
	Child Iterator
	Pred  Pred
	pred  bound
}

// NewFilter builds a selection.
func NewFilter(ctx *Context, child Iterator, pred Pred) *Filter {
	return &Filter{Ctx: ctx, Child: child, Pred: pred}
}

// Schema implements Iterator.
func (f *Filter) Schema() *catalog.Schema { return f.Child.Schema() }

// Open implements Iterator.
func (f *Filter) Open() error { return f.Child.Open() }

// Next implements Iterator.
func (f *Filter) Next() (catalog.Tuple, bool, error) {
	pr := f.Ctx.Pr
	pr.Enter(f.Ctx.Fns.FilterNext)
	for {
		t, ok, err := f.Child.Next()
		if err != nil || !ok {
			pr.Exit()
			return catalog.Tuple{}, false, err
		}
		pred := f.pred.to(f.Pred, t.Schema)
		pr.Enter(f.Ctx.Fns.EvalPred)
		pr.Work(pred.cost)
		match := pred.eval(t)
		pr.Exit()
		if match {
			pr.Exit()
			return t, true, nil
		}
	}
}

// Close implements Iterator.
func (f *Filter) Close() error { return f.Child.Close() }

// Project narrows tuples to a column subset.
type Project struct {
	Ctx   *Context
	Child Iterator
	Cols  []string

	sch  *catalog.Schema
	idxs []int
	buf  []byte
}

// NewProject builds a projection.
func NewProject(ctx *Context, child Iterator, cols ...string) *Project {
	sch := child.Schema().Project(cols...)
	idxs := make([]int, len(cols))
	for i, c := range cols {
		idxs[i] = child.Schema().ColIndex(c)
	}
	return &Project{Ctx: ctx, Child: child, Cols: cols, sch: sch, idxs: idxs}
}

// Schema implements Iterator.
func (p *Project) Schema() *catalog.Schema { return p.sch }

// Open implements Iterator.
func (p *Project) Open() error {
	p.buf = make([]byte, p.sch.Size())
	return p.Child.Open()
}

// Next implements Iterator.
func (p *Project) Next() (catalog.Tuple, bool, error) {
	p.Ctx.Pr.Enter(p.Ctx.Fns.ProjectNext)
	defer p.Ctx.Pr.Exit()
	t, ok, err := p.Child.Next()
	if err != nil || !ok {
		return catalog.Tuple{}, false, err
	}
	p.Ctx.Pr.Work(6 + 4*len(p.idxs))
	out := 0
	for j, src := range p.idxs {
		w := colWidth(p.sch.Col(j))
		srcOff := t.Schema.Offset(src)
		copy(p.buf[out:out+w], t.Buf[srcOff:srcOff+w])
		out += w
	}
	return catalog.Tuple{Schema: p.sch, Buf: p.buf}, true, nil
}

// Close implements Iterator.
func (p *Project) Close() error { return p.Child.Close() }

func colWidth(c catalog.Column) int {
	if c.Type == catalog.Int {
		return 8
	}
	return c.Len
}

// Limit yields at most N tuples.
type Limit struct {
	Ctx   *Context
	Child Iterator
	N     int64
	seen  int64
}

// NewLimit builds a limit.
func NewLimit(ctx *Context, child Iterator, n int64) *Limit {
	return &Limit{Ctx: ctx, Child: child, N: n}
}

// Schema implements Iterator.
func (l *Limit) Schema() *catalog.Schema { return l.Child.Schema() }

// Open implements Iterator.
func (l *Limit) Open() error {
	l.seen = 0
	return l.Child.Open()
}

// Next implements Iterator.
func (l *Limit) Next() (catalog.Tuple, bool, error) {
	l.Ctx.Pr.Enter(l.Ctx.Fns.LimitNext)
	defer l.Ctx.Pr.Exit()
	l.Ctx.Pr.Work(4)
	if l.seen >= l.N {
		return catalog.Tuple{}, false, nil
	}
	t, ok, err := l.Child.Next()
	if err != nil || !ok {
		return catalog.Tuple{}, false, err
	}
	l.seen++
	return t, true, nil
}

// Close implements Iterator.
func (l *Limit) Close() error { return l.Child.Close() }
