package exec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

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

	// groups numbers each group key; group g indexes reps and the
	// accumulator run accs[g*len(Aggs):].
	groups    groupTable
	reps      []catalog.Tuple
	accs      []accum
	order     []int32 // group numbers, sorted by key bytes for output
	key       []byte  // the current row's group key
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
	pr, fns := h.Ctx.Pr, h.Ctx.Fns
	pr.Enter(fns.AggOpen)
	defer pr.Exit()
	pr.Work(36)
	h.groups.reset()
	h.tableAddr = h.Ctx.Arena.Alloc(64 * 1024)
	h.buf = make([]byte, h.sch.Size())
	childSch := h.Child.Schema()
	aggIdx := make([]int, len(h.Aggs)) // the column each aggregate reads; -1 for Count
	for i, a := range h.Aggs {
		aggIdx[i] = -1
		if a.Op != Count {
			aggIdx[i] = childSch.ColIndex(a.Col)
		}
	}
	n := len(h.Aggs)
	_, err := Run(h.Child, func(t catalog.Tuple) error {
		pr.Enter(fns.AggUpdate)
		pr.Work(14 + 6*n)
		h.groupKey(t)
		if pr.Enabled() {
			// The hash only places a simulated reference; an inert
			// probe would drop it.
			pr.Data(h.tableAddr+isa.Addr(strHash(h.key)%(64*1024-64)), 32, true)
		}
		g, added := h.groups.find(h.key)
		if added {
			h.reps = append(h.reps, t.Copy())
			h.accs = append(h.accs, make([]accum, n)...)
		}
		accs := h.accs[g*n : (g+1)*n]
		for i, c := range aggIdx {
			var v int64 = 1
			if c >= 0 {
				v = t.Int(c)
			}
			accs[i].update(v)
		}
		pr.Exit()
		return nil
	})
	if err != nil {
		return err
	}
	h.order = make([]int32, h.groups.len())
	for g := range h.order {
		h.order[g] = int32(g)
	}
	slices.SortFunc(h.order, func(a, b int32) int {
		return bytes.Compare(h.groups.key(int(a)), h.groups.key(int(b)))
	})
	h.pos = 0
	return nil
}

// groupKey builds t's group key into h.key: each integer column's 8
// little-endian bytes, each string column's bytes and a NUL.
func (h *HashAggregate) groupKey(t catalog.Tuple) {
	pr := h.Ctx.Pr
	pr.Enter(h.Ctx.Fns.HashTuple)
	pr.Work(8 + 4*len(h.groupIdx))
	key := h.key[:0]
	for _, gi := range h.groupIdx {
		if t.Schema.Col(gi).Type == catalog.Int {
			key = binary.LittleEndian.AppendUint64(key, uint64(t.Int(gi)))
		} else {
			key = append(key, t.StrBytes(gi)...)
			key = append(key, 0)
		}
	}
	h.key = key
	pr.Exit()
}

// strHash is FNV-1a over b: it places Agg_update's simulated
// hash-table reference.
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
	if h.pos >= len(h.order) {
		return catalog.Tuple{}, false, nil
	}
	g := int(h.order[h.pos])
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
	h.groups = groupTable{}
	h.reps = nil
	h.accs = nil
	h.order = nil
	return nil
}

// groupTable numbers distinct group keys 0, 1, 2, … in the order they
// first arrive. It is open-addressed: the top bits of a key's hash pick
// its home slot, and a collision probes on to the next slot. Every
// group's key lies in one byte slab.
type groupTable struct {
	slots []groupSlot
	shift uint  // 64 - log2(len(slots))
	offs  []int // group g's key is keys[offs[g]:offs[g+1]]
	keys  []byte
}

// groupSlot is one slot of a groupTable: a group's number plus one (0
// marks the slot empty) and its key's hash.
type groupSlot struct {
	hash uint64
	g    int32
}

// minGroupSlots is the slot count of an empty table, a power of two;
// the table doubles whenever it would pass half full.
const minGroupSlots = 16

// reset empties the table.
func (gt *groupTable) reset() {
	*gt = groupTable{slots: make([]groupSlot, minGroupSlots), shift: 64 - 4, offs: []int{0}}
}

// len returns the number of groups.
func (gt *groupTable) len() int { return len(gt.offs) - 1 }

// key returns group g's key bytes.
func (gt *groupTable) key(g int) []byte { return gt.keys[gt.offs[g]:gt.offs[g+1]] }

// find returns key's group number, adding key as the next group (added
// true) when the table does not hold it. The table keeps its own copy
// of a new key.
func (gt *groupTable) find(key []byte) (g int, added bool) {
	h := keyHash(key)
	mask := uint64(len(gt.slots) - 1)
	for i := h >> gt.shift; ; i = (i + 1) & mask {
		s := &gt.slots[i]
		if s.g == 0 {
			g = gt.len()
			*s = groupSlot{hash: h, g: int32(g + 1)}
			gt.keys = append(gt.keys, key...)
			gt.offs = append(gt.offs, len(gt.keys))
			if 2*gt.len() > len(gt.slots) {
				gt.grow()
			}
			return g, true
		}
		if s.hash == h && string(gt.key(int(s.g-1))) == string(key) {
			return int(s.g - 1), false
		}
	}
}

// grow doubles the slot count and re-places every group.
func (gt *groupTable) grow() {
	old := gt.slots
	gt.slots = make([]groupSlot, 2*len(old))
	gt.shift--
	mask := uint64(len(gt.slots) - 1)
	for _, s := range old {
		if s.g == 0 {
			continue
		}
		i := s.hash >> gt.shift
		for gt.slots[i].g != 0 {
			i = (i + 1) & mask
		}
		gt.slots[i] = s
	}
}

// keyHash hashes a group key eight bytes at a time by multiplying with
// 2^64/φ (Fibonacci hashing). Every key bit reaches the product's top
// bits, which pick a slot.
func keyHash(b []byte) uint64 {
	const k = 0x9e3779b97f4a7c15
	h := uint64(len(b)) * k
	for ; len(b) >= 8; b = b[8:] {
		h = (h>>32 ^ h ^ binary.LittleEndian.Uint64(b)) * k
	}
	if len(b) > 0 {
		var w uint64
		for i, c := range b {
			w |= uint64(c) << (8 * i)
		}
		h = (h>>32 ^ h ^ w) * k
	}
	return h
}
