package exec

import "cgp/internal/db/catalog"

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (op CmpOp) eval(a, b int64) bool {
	switch op {
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	}
	return false
}

// String returns the operator symbol.
func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return "?"
}

// Pred is a tuple predicate over named columns. Cost is a synthetic
// instruction count used by the operators to account evaluation work.
// An operator evaluates a Pred through a bound form (see bound), which
// resolves the column names once per schema rather than once per row.
type Pred interface {
	// bind appends the predicate's conjuncts, with their columns
	// resolved against s, to dst.
	bind(dst []term, s *catalog.Schema) []term
	Cost() int
}

// IntCmp compares an integer column against a constant.
type IntCmp struct {
	Col string
	Op  CmpOp
	Val int64
}

func (p IntCmp) bind(dst []term, s *catalog.Schema) []term {
	return append(dst, term{kind: intCmp, op: p.Op, col: s.ColIndex(p.Col), val: p.Val})
}

// Cost implements Pred.
func (p IntCmp) Cost() int { return 8 }

// IntRange tests Lo <= col <= Hi.
type IntRange struct {
	Col    string
	Lo, Hi int64
}

func (p IntRange) bind(dst []term, s *catalog.Schema) []term {
	c := s.ColIndex(p.Col)
	return append(dst,
		term{kind: intCmp, op: Ge, col: c, val: p.Lo},
		term{kind: intCmp, op: Le, col: c, val: p.Hi})
}

// Cost implements Pred.
func (p IntRange) Cost() int { return 12 }

// StrEq compares a string column against a constant.
type StrEq struct {
	Col string
	Val string
}

func (p StrEq) bind(dst []term, s *catalog.Schema) []term {
	return append(dst, term{kind: strEq, col: s.ColIndex(p.Col), str: p.Val})
}

// Cost implements Pred.
func (p StrEq) Cost() int { return 20 }

// And is a conjunction.
type And []Pred

func (p And) bind(dst []term, s *catalog.Schema) []term {
	for _, q := range p {
		dst = q.bind(dst, s)
	}
	return dst
}

// Cost implements Pred.
func (p And) Cost() int {
	c := 4
	for _, q := range p {
		c += q.Cost()
	}
	return c
}

// ColEq compares two integer columns (join predicates for NL join).
type ColEq struct {
	Left, Right string
}

func (p ColEq) bind(dst []term, s *catalog.Schema) []term {
	return append(dst, term{kind: colCmp, op: Eq, col: s.ColIndex(p.Left), col2: s.ColIndex(p.Right)})
}

// Cost implements Pred.
func (p ColEq) Cost() int { return 10 }

// ColCmp compares two integer columns with an arbitrary operator.
type ColCmp struct {
	Left, Right string
	Op          CmpOp
}

func (p ColCmp) bind(dst []term, s *catalog.Schema) []term {
	return append(dst, term{kind: colCmp, op: p.Op, col: s.ColIndex(p.Left), col2: s.ColIndex(p.Right)})
}

// Cost implements Pred.
func (p ColCmp) Cost() int { return 10 }

// True matches everything.
type True struct{}

func (True) bind(dst []term, _ *catalog.Schema) []term { return dst }

// Cost implements Pred.
func (True) Cost() int { return 1 }

type termKind uint8

const (
	intCmp termKind = iota // col op val
	colCmp                 // col op col2
	strEq                  // col = str, padding trimmed
)

// term is one conjunct of a bound predicate, its columns resolved to
// indexes.
type term struct {
	kind      termKind
	op        CmpOp
	col, col2 int
	val       int64
	str       string
}

func (c *term) eval(t catalog.Tuple) bool {
	switch c.kind {
	case intCmp:
		return c.op.eval(t.Int(c.col), c.val)
	case colCmp:
		return c.op.eval(t.Int(c.col), t.Int(c.col2))
	case strEq:
		return string(t.StrBytes(c.col)) == c.str
	}
	return false
}

// bound evaluates a Pred with its columns resolved against the schema
// of the tuples it sees, and keeps the Pred's Cost. An operator binds
// it on the first tuple and again only when the schema pointer changes,
// so a plan naming an unknown column over an empty input never panics.
type bound struct {
	sch   *catalog.Schema
	terms []term
	cost  int
}

// to binds b to p over s, unless it is bound to s already, and returns
// b.
func (b *bound) to(p Pred, s *catalog.Schema) *bound {
	if s != b.sch {
		b.bind(p, s)
	}
	return b
}

// bind resolves p's terms against s and takes p's Cost. It stays out
// of to, so that to inlines into the per-row loops.
func (b *bound) bind(p Pred, s *catalog.Schema) {
	b.terms = p.bind(b.terms[:0], s)
	b.cost = p.Cost()
	b.sch = s
}

// eval reports whether t, a tuple of the schema b is bound to, matches.
func (b *bound) eval(t catalog.Tuple) bool {
	for i := range b.terms {
		if !b.terms[i].eval(t) {
			return false
		}
	}
	return true
}
