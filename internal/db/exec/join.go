package exec

import (
	"cgp/internal/db/catalog"
	"cgp/internal/db/heap"
	"cgp/internal/db/index"
)

// joinOutput builds the concatenated output tuple for joins.
type joinOutput struct {
	sch *catalog.Schema
	buf []byte
}

func newJoinOutput(left, right *catalog.Schema, prefix []string) *joinOutput {
	p := "r_"
	if len(prefix) > 0 && prefix[0] != "" {
		p = prefix[0]
	}
	sch := catalog.Concat(left, right, p)
	return &joinOutput{sch: sch, buf: make([]byte, sch.Size())}
}

func (j *joinOutput) emit(l, r catalog.Tuple) catalog.Tuple {
	copy(j.buf, l.Buf)
	copy(j.buf[len(l.Buf):], r.Buf)
	return catalog.Tuple{Schema: j.sch, Buf: j.buf}
}

// NLJoin is a nested-loops join: the inner input is materialized once
// and rescanned per outer tuple. Suited to small inners (dimension
// tables); the paper's operator list includes it alongside the smarter
// joins.
type NLJoin struct {
	Ctx    *Context
	Outer  Iterator
	Inner  Iterator
	On     Pred // evaluated on the concatenated tuple
	prefix []string
	on     bound

	out      *joinOutput
	inner    []catalog.Tuple
	curOuter catalog.Tuple // its bytes are reused row to row
	haveOut  bool
	innerPos int
}

// NewNLJoin builds a nested-loops join. The optional prefix renames
// duplicate right-side columns (default "r_").
func NewNLJoin(ctx *Context, outer, inner Iterator, on Pred, prefix ...string) *NLJoin {
	return &NLJoin{Ctx: ctx, Outer: outer, Inner: inner, On: on, prefix: prefix}
}

// Schema implements Iterator.
func (j *NLJoin) Schema() *catalog.Schema {
	j.ensureOut()
	return j.out.sch
}

func (j *NLJoin) ensureOut() {
	if j.out == nil {
		j.out = newJoinOutput(j.Outer.Schema(), j.Inner.Schema(), j.prefix)
	}
}

// Open implements Iterator: materializes the inner side.
func (j *NLJoin) Open() error {
	j.ensureOut()
	if err := j.Outer.Open(); err != nil {
		return err
	}
	tuples, err := Collect(j.Inner)
	if err != nil {
		return err
	}
	j.inner = tuples
	j.haveOut = false
	j.innerPos = 0
	return nil
}

// Next implements Iterator.
func (j *NLJoin) Next() (catalog.Tuple, bool, error) {
	j.Ctx.Pr.Enter(j.Ctx.Fns.NLJoinNext)
	defer j.Ctx.Pr.Exit()
	for {
		if !j.haveOut {
			t, ok, err := j.Outer.Next()
			if err != nil || !ok {
				return catalog.Tuple{}, false, err
			}
			j.curOuter = catalog.Tuple{Schema: t.Schema, Buf: append(j.curOuter.Buf[:0], t.Buf...)}
			j.haveOut = true
			j.innerPos = 0
		}
		for j.innerPos < len(j.inner) {
			r := j.inner[j.innerPos]
			j.innerPos++
			cand := j.out.emit(j.curOuter, r)
			on := j.on.to(j.On, cand.Schema)
			j.Ctx.Pr.Enter(j.Ctx.Fns.EvalPred)
			j.Ctx.Pr.Work(on.cost)
			match := on.eval(cand)
			j.Ctx.Pr.Exit()
			if match {
				return cand, true, nil
			}
		}
		j.haveOut = false
	}
}

// Close implements Iterator.
func (j *NLJoin) Close() error {
	j.inner = nil
	return j.Outer.Close()
}

// IndexNLJoin probes a B+-tree on the inner relation with a key from
// each outer tuple (equi-join). Only the first match per key joins a
// given outer tuple when the index is unique; duplicates are followed
// through the leaf chain.
type IndexNLJoin struct {
	Ctx      *Context
	Outer    Iterator
	OuterCol string
	Tree     *index.Tree
	File     *heap.File
	InnerSch *catalog.Schema
	prefix   []string

	out      *joinOutput
	outerIdx int
	cursor   index.Cursor  // re-seated for each outer key
	curOuter catalog.Tuple // its bytes are reused row to row
	curKey   int64
	haveOut  bool
	buf      []byte // the inner record, reused row to row
}

// NewIndexNLJoin builds an index nested-loops join. The optional prefix
// renames duplicate right-side columns (default "r_").
func NewIndexNLJoin(ctx *Context, outer Iterator, outerCol string, tree *index.Tree, file *heap.File, innerSch *catalog.Schema, prefix ...string) *IndexNLJoin {
	return &IndexNLJoin{
		Ctx: ctx, Outer: outer, OuterCol: outerCol,
		Tree: tree, File: file, InnerSch: innerSch, prefix: prefix,
		outerIdx: outer.Schema().ColIndex(outerCol),
	}
}

// Schema implements Iterator.
func (j *IndexNLJoin) Schema() *catalog.Schema {
	if j.out == nil {
		j.out = newJoinOutput(j.Outer.Schema(), j.InnerSch, j.prefix)
	}
	return j.out.sch
}

// Open implements Iterator.
func (j *IndexNLJoin) Open() error {
	j.Schema()
	j.haveOut = false
	return j.Outer.Open()
}

// Next implements Iterator.
func (j *IndexNLJoin) Next() (catalog.Tuple, bool, error) {
	j.Ctx.Pr.Enter(j.Ctx.Fns.IdxJoinNext)
	defer j.Ctx.Pr.Exit()
	for {
		if !j.haveOut {
			t, ok, err := j.Outer.Next()
			if err != nil || !ok {
				return catalog.Tuple{}, false, err
			}
			j.curOuter = catalog.Tuple{Schema: t.Schema, Buf: append(j.curOuter.Buf[:0], t.Buf...)}
			j.Ctx.Pr.Enter(j.Ctx.Fns.GetField)
			j.Ctx.Pr.Work(6)
			j.curKey = t.Int(j.outerIdx)
			j.Ctx.Pr.Exit()
			if err := j.Tree.Seek(&j.cursor, j.curKey, j.curKey, true); err != nil {
				return catalog.Tuple{}, false, err
			}
			j.haveOut = true
		}
		_, rid, ok, err := j.cursor.Next()
		if err != nil {
			return catalog.Tuple{}, false, err
		}
		if !ok {
			j.cursor.Close()
			j.haveOut = false
			continue
		}
		rec, err := j.File.ReadRec(j.Ctx.Txn, rid, j.buf)
		if err != nil {
			return catalog.Tuple{}, false, err
		}
		j.buf = rec
		inner := catalog.Tuple{Schema: j.InnerSch, Buf: rec}
		return j.out.emit(j.curOuter, inner), true, nil
	}
}

// Close implements Iterator.
func (j *IndexNLJoin) Close() error {
	j.cursor.Close()
	return j.Outer.Close()
}
