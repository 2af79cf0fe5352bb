package exec

import (
	"fmt"
	"sort"

	"cgp/internal/db/catalog"
	"cgp/internal/isa"
)

// AggOp is an aggregate function.
type AggOp uint8

// Aggregate operators.
const (
	Count AggOp = iota
	Sum
	Min
	Max
	Avg
)

// String returns the SQL name.
func (op AggOp) String() string {
	switch op {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	case Avg:
		return "avg"
	}
	return "?"
}

// Agg is one aggregate column specification.
type Agg struct {
	Op  AggOp
	Col string // ignored for Count
	As  string
}

type accum struct {
	count int64
	sum   int64
	min   int64
	max   int64
	set   bool
}

func (a *accum) update(v int64) {
	a.count++
	a.sum += v
	if !a.set || v < a.min {
		a.min = v
	}
	if !a.set || v > a.max {
		a.max = v
	}
	a.set = true
}

func (a *accum) result(op AggOp) int64 {
	switch op {
	case Count:
		return a.count
	case Sum:
		return a.sum
	case Min:
		return a.min
	case Max:
		return a.max
	case Avg:
		if a.count == 0 {
			return 0
		}
		return a.sum / a.count
	}
	return 0
}

// HashAggregate groups its input by integer and/or string columns and
// computes aggregates per group (the paper's hash-based aggregate
// operator). Output groups are emitted in deterministic (sorted key)
// order.
type HashAggregate struct {
	Ctx      *Context
	Child    Iterator
	GroupBy  []string
	Aggs     []Agg
	sch      *catalog.Schema
	groupIdx []int

	// groups maps a group key to its group number g, which indexes
	// reps and the accumulator run accs[g*len(Aggs):].
	groups    map[string]int
	reps      []catalog.Tuple
	accs      []accum
	keys      []string // every group key; sorted for output
	key       []byte   // the current row's group key
	pos       int
	buf       []byte
	tableAddr isa.Addr
}

// NewHashAggregate builds a grouped aggregation.
func NewHashAggregate(ctx *Context, child Iterator, groupBy []string, aggs []Agg) *HashAggregate {
	cols := make([]catalog.Column, 0, len(groupBy)+len(aggs))
	idxs := make([]int, len(groupBy))
	for i, g := range groupBy {
		idxs[i] = child.Schema().ColIndex(g)
		cols = append(cols, child.Schema().Col(idxs[i]))
	}
	for _, a := range aggs {
		name := a.As
		if name == "" {
			name = fmt.Sprintf("%s_%s", a.Op, a.Col)
		}
		cols = append(cols, catalog.Column{Name: name, Type: catalog.Int})
	}
	return &HashAggregate{
		Ctx: ctx, Child: child, GroupBy: groupBy, Aggs: aggs,
		sch: catalog.NewSchema(cols...), groupIdx: idxs,
	}
}

// Schema implements Iterator.
func (h *HashAggregate) Schema() *catalog.Schema { return h.sch }

// Open implements Iterator: consumes the entire input building the
// group table.
func (h *HashAggregate) Open() error {
	h.Ctx.Pr.Enter(h.Ctx.Fns.AggOpen)
	defer h.Ctx.Pr.Exit()
	h.Ctx.Pr.Work(36)
	h.groups = make(map[string]int)
	h.tableAddr = h.Ctx.Arena.Alloc(64 * 1024)
	h.buf = make([]byte, h.sch.Size())
	childSch := h.Child.Schema()
	aggIdx := make([]int, len(h.Aggs))
	for i, a := range h.Aggs {
		if a.Op != Count {
			aggIdx[i] = childSch.ColIndex(a.Col)
		}
	}
	n := len(h.Aggs)
	_, err := Run(h.Child, func(t catalog.Tuple) error {
		h.Ctx.Pr.Enter(h.Ctx.Fns.AggUpdate)
		defer h.Ctx.Pr.Exit()
		h.Ctx.Pr.Work(14 + 6*n)
		h.groupKey(t)
		h.Ctx.Pr.Data(h.tableAddr+isa.Addr(strHash(h.key)%(64*1024-64)), 32, true)
		g, ok := h.groups[string(h.key)]
		if !ok {
			g = len(h.reps)
			key := string(h.key)
			h.groups[key] = g
			h.keys = append(h.keys, key)
			h.reps = append(h.reps, t.Copy())
			h.accs = append(h.accs, make([]accum, n)...)
		}
		accs := h.accs[g*n : (g+1)*n]
		for i, a := range h.Aggs {
			var v int64 = 1
			if a.Op != Count {
				v = t.Int(aggIdx[i])
			}
			accs[i].update(v)
		}
		return nil
	})
	if err != nil {
		return err
	}
	sort.Strings(h.keys)
	h.pos = 0
	return nil
}

// groupKey builds t's group key into h.key.
func (h *HashAggregate) groupKey(t catalog.Tuple) {
	h.Ctx.Pr.Enter(h.Ctx.Fns.HashTuple)
	defer h.Ctx.Pr.Exit()
	h.Ctx.Pr.Work(8 + 4*len(h.groupIdx))
	key := h.key[:0]
	for _, gi := range h.groupIdx {
		c := t.Schema.Col(gi)
		if c.Type == catalog.Int {
			v := t.Int(gi)
			for s := 0; s < 64; s += 8 {
				key = append(key, byte(v>>s))
			}
		} else {
			key = append(key, t.StrBytes(gi)...)
			key = append(key, 0)
		}
	}
	h.key = key
}

func strHash(b []byte) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}

// Next implements Iterator: emits one group per call.
func (h *HashAggregate) Next() (catalog.Tuple, bool, error) {
	h.Ctx.Pr.Enter(h.Ctx.Fns.AggNext)
	defer h.Ctx.Pr.Exit()
	h.Ctx.Pr.Work(10)
	if h.pos >= len(h.keys) {
		return catalog.Tuple{}, false, nil
	}
	g := h.groups[h.keys[h.pos]]
	h.pos++
	rep := h.reps[g]
	accs := h.accs[g*len(h.Aggs):]
	vals := make([]catalog.Value, 0, h.sch.NumCols())
	for i, gi := range h.groupIdx {
		c := h.sch.Col(i)
		if c.Type == catalog.Int {
			vals = append(vals, catalog.V(rep.Int(gi)))
		} else {
			vals = append(vals, catalog.SV(rep.Str(gi)))
		}
	}
	for i, a := range h.Aggs {
		vals = append(vals, catalog.V(accs[i].result(a.Op)))
	}
	copy(h.buf, h.sch.Encode(vals))
	return catalog.Tuple{Schema: h.sch, Buf: h.buf}, true, nil
}

// Close implements Iterator.
func (h *HashAggregate) Close() error {
	h.groups = nil
	h.reps = nil
	h.accs = nil
	h.keys = nil
	return nil
}
