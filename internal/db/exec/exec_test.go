// Operators are tested through the assembled engine (external test
// package to avoid the db->exec import cycle).
package exec_test

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"cgp/internal/db"
	"cgp/internal/db/catalog"
	"cgp/internal/db/exec"
	"cgp/internal/db/probe"
	"cgp/internal/db/txn"
)

type env struct {
	e   *db.Engine
	tx  *txn.Txn
	ctx *exec.Context
}

// newEnv loads a small two-table database:
//
//	nums(k, v, grp): k=0..n-1, v=k*10, grp=k%4
//	dims(k, label):  k=0..9
func newEnv(t *testing.T, n int) *env {
	t.Helper()
	e := db.NewEngine(db.Options{BufferFrames: 256})
	tx := e.Txns.Begin()

	nums, err := e.CreateTable("nums", catalog.NewSchema(
		catalog.Column{Name: "k", Type: catalog.Int},
		catalog.Column{Name: "v", Type: catalog.Int},
		catalog.Column{Name: "grp", Type: catalog.Int},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := e.InsertRow(tx, nums, []catalog.Value{
			catalog.V(int64(i)), catalog.V(int64(i * 10)), catalog.V(int64(i % 4)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.CreateIndex(tx, "nums", "k", true); err != nil {
		t.Fatal(err)
	}

	dims, err := e.CreateTable("dims", catalog.NewSchema(
		catalog.Column{Name: "k", Type: catalog.Int},
		catalog.Column{Name: "label", Type: catalog.String, Len: 8},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := e.InsertRow(tx, dims, []catalog.Value{
			catalog.V(int64(i)), catalog.SV(string(rune('a' + i))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Txns.Commit(tx); err != nil {
		t.Fatal(err)
	}
	tx2 := e.Txns.Begin()
	return &env{e: e, tx: tx2, ctx: e.NewContext(tx2)}
}

func (v *env) scanNums() *exec.SeqScan {
	tbl := v.e.MustTable("nums")
	return exec.NewSeqScan(v.ctx, tbl.Heap, tbl.Schema)
}

func (v *env) scanDims() *exec.SeqScan {
	tbl := v.e.MustTable("dims")
	return exec.NewSeqScan(v.ctx, tbl.Heap, tbl.Schema)
}

func TestSeqScanCount(t *testing.T) {
	v := newEnv(t, 100)
	n, err := exec.Run(v.scanNums(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("scan returned %d rows", n)
	}
}

func TestFilterSelectivity(t *testing.T) {
	v := newEnv(t, 100)
	it := exec.NewFilter(v.ctx, v.scanNums(), exec.IntRange{Col: "k", Lo: 10, Hi: 19})
	rows, err := exec.Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("filter returned %d rows", len(rows))
	}
	for _, r := range rows {
		k := r.Int(0)
		if k < 10 || k > 19 {
			t.Errorf("row k=%d escaped filter", k)
		}
	}
}

func TestFilterOperators(t *testing.T) {
	v := newEnv(t, 20)
	cases := []struct {
		pred exec.Pred
		want int
	}{
		{exec.IntCmp{Col: "k", Op: exec.Eq, Val: 5}, 1},
		{exec.IntCmp{Col: "k", Op: exec.Ne, Val: 5}, 19},
		{exec.IntCmp{Col: "k", Op: exec.Lt, Val: 5}, 5},
		{exec.IntCmp{Col: "k", Op: exec.Le, Val: 5}, 6},
		{exec.IntCmp{Col: "k", Op: exec.Gt, Val: 15}, 4},
		{exec.IntCmp{Col: "k", Op: exec.Ge, Val: 15}, 5},
		{exec.And{exec.IntCmp{Col: "k", Op: exec.Ge, Val: 5}, exec.IntCmp{Col: "k", Op: exec.Lt, Val: 8}}, 3},
		{exec.True{}, 20},
	}
	for _, c := range cases {
		it := exec.NewFilter(v.ctx, v.scanNums(), c.pred)
		n, err := exec.Run(it, nil)
		if err != nil {
			t.Fatal(err)
		}
		if int(n) != c.want {
			t.Errorf("pred %+v: %d rows, want %d", c.pred, n, c.want)
		}
	}
}

func TestIndexScanMatchesFilter(t *testing.T) {
	v := newEnv(t, 200)
	tbl := v.e.MustTable("nums")
	idx := exec.NewIndexScan(v.ctx, tbl.Indexes["k"], tbl.Heap, tbl.Schema, 50, 69)
	rows, err := exec.Collect(idx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("index scan returned %d rows", len(rows))
	}
	for i, r := range rows {
		if r.Int(0) != int64(50+i) {
			t.Errorf("row %d k=%d (index scans are key-ordered)", i, r.Int(0))
		}
		if r.Int(1) != r.Int(0)*10 {
			t.Errorf("row %d v=%d", i, r.Int(1))
		}
	}
}

func TestFetchSingleTuple(t *testing.T) {
	v := newEnv(t, 100)
	tbl := v.e.MustTable("nums")
	tup, ok, err := exec.Fetch(v.ctx, tbl.Indexes["k"], tbl.Heap, tbl.Schema, 42)
	if err != nil || !ok {
		t.Fatalf("fetch: %v %v", ok, err)
	}
	if tup.Int(1) != 420 {
		t.Errorf("v = %d", tup.Int(1))
	}
	if _, ok, _ := exec.Fetch(v.ctx, tbl.Indexes["k"], tbl.Heap, tbl.Schema, 9999); ok {
		t.Error("fetch of absent key succeeded")
	}
}

func TestProject(t *testing.T) {
	v := newEnv(t, 10)
	it := exec.NewProject(v.ctx, v.scanNums(), "v", "k")
	rows, err := exec.Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	if rows[3].Schema.ColNames() != "v,k" {
		t.Errorf("schema = %s", rows[3].Schema.ColNames())
	}
	if rows[3].Int(0) != 30 || rows[3].Int(1) != 3 {
		t.Errorf("row 3 = %d,%d", rows[3].Int(0), rows[3].Int(1))
	}
}

func TestLimit(t *testing.T) {
	v := newEnv(t, 100)
	n, err := exec.Run(exec.NewLimit(v.ctx, v.scanNums(), 7), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Errorf("limit returned %d", n)
	}
}

func TestExtend(t *testing.T) {
	v := newEnv(t, 10)
	it := exec.NewExtend(v.ctx, v.scanNums(), "double", 5, func(tup catalog.Tuple) int64 {
		return 2 * tup.Int(1)
	})
	rows, err := exec.Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	di := rows[0].Schema.ColIndex("double")
	for _, r := range rows {
		if r.Int(di) != 2*r.Int(1) {
			t.Errorf("double = %d, v = %d", r.Int(di), r.Int(1))
		}
	}
}

// joins: NL, index-NL and Grace hash must agree.
func TestJoinsAgree(t *testing.T) {
	v := newEnv(t, 40)
	tbl := v.e.MustTable("nums")

	collectKeys := func(it exec.Iterator, leftCol, rightCol string) map[[2]int64]int {
		t.Helper()
		rows, err := exec.Collect(it)
		if err != nil {
			t.Fatal(err)
		}
		out := map[[2]int64]int{}
		for _, r := range rows {
			key := [2]int64{r.Int(r.Schema.ColIndex(leftCol)), r.Int(r.Schema.ColIndex(rightCol))}
			out[key]++
		}
		return out
	}

	// dims.k = nums.grp: each dim 0..3 matches 10 rows.
	nl := exec.NewNLJoin(v.ctx, v.scanDims(), v.scanNums(),
		exec.ColEq{Left: "k", Right: "grp"})
	nlRows := collectKeys(nl, "k", "r_k")

	grace := exec.NewGraceHashJoin(v.ctx, v.scanDims(), v.scanNums(), "k", "grp", 4)
	graceRows := collectKeys(grace, "k", "r_k")

	if len(nlRows) != len(graceRows) {
		t.Fatalf("NL %d pairs, Grace %d pairs", len(nlRows), len(graceRows))
	}
	total := 0
	for k, c := range nlRows {
		if graceRows[k] != c {
			t.Fatalf("pair %v: NL %d, Grace %d", k, c, graceRows[k])
		}
		total += c
	}
	if total != 40 { // every nums row has grp in 0..3 = dims keys
		t.Errorf("join cardinality %d, want 40", total)
	}

	// Index NL join on nums.k against dims.k (unique): 10 matches.
	inl := exec.NewIndexNLJoin(v.ctx, v.scanDims(), "k",
		tbl.Indexes["k"], tbl.Heap, tbl.Schema)
	inlRows, err := exec.Collect(inl)
	if err != nil {
		t.Fatal(err)
	}
	if len(inlRows) != 10 {
		t.Errorf("INLJ returned %d rows, want 10", len(inlRows))
	}
	for _, r := range inlRows {
		if r.Int(r.Schema.ColIndex("k")) != r.Int(r.Schema.ColIndex("r_k")) {
			t.Error("INLJ joined mismatched keys")
		}
	}
}

func TestHashAggregate(t *testing.T) {
	v := newEnv(t, 40)
	agg := exec.NewHashAggregate(v.ctx, v.scanNums(), []string{"grp"}, []exec.Agg{
		{Op: exec.Count, As: "n"},
		{Op: exec.Sum, Col: "v", As: "sum_v"},
		{Op: exec.Min, Col: "k", As: "min_k"},
		{Op: exec.Max, Col: "k", As: "max_k"},
		{Op: exec.Avg, Col: "v", As: "avg_v"},
	})
	rows, err := exec.Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("groups = %d", len(rows))
	}
	for _, r := range rows {
		g := r.Int(0)
		// group g: k = g, g+4, ..., g+36 (10 values); v = 10k
		wantSum := int64(0)
		for k := g; k < 40; k += 4 {
			wantSum += k * 10
		}
		if r.Int(r.Schema.ColIndex("n")) != 10 {
			t.Errorf("group %d count = %d", g, r.Int(1))
		}
		if got := r.Int(r.Schema.ColIndex("sum_v")); got != wantSum {
			t.Errorf("group %d sum = %d, want %d", g, got, wantSum)
		}
		if got := r.Int(r.Schema.ColIndex("min_k")); got != g {
			t.Errorf("group %d min = %d", g, got)
		}
		if got := r.Int(r.Schema.ColIndex("max_k")); got != g+36 {
			t.Errorf("group %d max = %d", g, got)
		}
		if got := r.Int(r.Schema.ColIndex("avg_v")); got != wantSum/10 {
			t.Errorf("group %d avg = %d", g, got)
		}
	}
}

func TestGlobalAggregate(t *testing.T) {
	v := newEnv(t, 100)
	agg := exec.NewHashAggregate(v.ctx, v.scanNums(), nil, []exec.Agg{
		{Op: exec.Sum, Col: "k", As: "total"},
	})
	rows, err := exec.Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Int(0) != 99*100/2 {
		t.Fatalf("global agg = %+v", rows)
	}
}

func TestSortAscendingDescending(t *testing.T) {
	v := newEnv(t, 50)
	srt := exec.NewSort(v.ctx, v.scanNums(), exec.SortKey{Col: "grp"}, exec.SortKey{Col: "k", Desc: true})
	rows, err := exec.Collect(srt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		if a.Int(2) > b.Int(2) {
			t.Fatalf("grp order broken at %d", i)
		}
		if a.Int(2) == b.Int(2) && a.Int(0) < b.Int(0) {
			t.Fatalf("k desc order broken at %d", i)
		}
	}
}

func TestMaterializeIntoTemp(t *testing.T) {
	v := newEnv(t, 30)
	tmp, err := v.e.TempFile("result")
	if err != nil {
		t.Fatal(err)
	}
	it := exec.NewFilter(v.ctx, v.scanNums(), exec.IntCmp{Col: "k", Op: exec.Lt, Val: 10})
	n, err := exec.Materialize(v.ctx, it, tmp)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 || tmp.NumRecords() != 10 {
		t.Errorf("materialized %d rows, temp has %d", n, tmp.NumRecords())
	}
	// The temp file is scannable with the source schema.
	tblSchema := v.e.MustTable("nums").Schema
	back := exec.NewSeqScan(v.ctx, tmp, tblSchema)
	rows, err := exec.Collect(back)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Errorf("re-scan of temp returned %d rows", len(rows))
	}
}

func TestNoPinLeaksAcrossOperators(t *testing.T) {
	v := newEnv(t, 60)
	tbl := v.e.MustTable("nums")
	plans := []exec.Iterator{
		exec.NewFilter(v.ctx, v.scanNums(), exec.IntRange{Col: "k", Lo: 5, Hi: 25}),
		exec.NewIndexScan(v.ctx, tbl.Indexes["k"], tbl.Heap, tbl.Schema, 0, 30),
		exec.NewGraceHashJoin(v.ctx, v.scanDims(), v.scanNums(), "k", "grp", 2),
		exec.NewHashAggregate(v.ctx, v.scanNums(), []string{"grp"}, []exec.Agg{{Op: exec.Count, As: "n"}}),
		exec.NewSort(v.ctx, v.scanNums(), exec.SortKey{Col: "v", Desc: true}),
	}
	for i, p := range plans {
		if _, err := exec.Run(p, nil); err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		if n := v.e.Pool.PinnedFrames(); n != 0 {
			t.Fatalf("plan %d leaked %d pins", i, n)
		}
	}
}

// refEval is the by-name reference every bound predicate is checked
// against: each column looked up in the tuple's schema on every call.
func refEval(p exec.Pred, t catalog.Tuple) bool {
	col := func(name string) int64 { return t.Int(t.Schema.ColIndex(name)) }
	switch p := p.(type) {
	case exec.IntCmp:
		return cmp(p.Op, col(p.Col), p.Val)
	case exec.IntRange:
		v := col(p.Col)
		return v >= p.Lo && v <= p.Hi
	case exec.StrEq:
		i := t.Schema.ColIndex(p.Col)
		off := t.Schema.Offset(i)
		return strings.TrimRight(string(t.Buf[off:off+t.Schema.Col(i).Len]), "\x00") == p.Val
	case exec.ColEq:
		return col(p.Left) == col(p.Right)
	case exec.ColCmp:
		return cmp(p.Op, col(p.Left), col(p.Right))
	case exec.And:
		for _, q := range p {
			if !refEval(q, t) {
				return false
			}
		}
		return true
	case exec.True:
		return true
	}
	panic(fmt.Sprintf("refEval: unknown predicate %T", p))
}

func cmp(op exec.CmpOp, a, b int64) bool {
	switch op {
	case exec.Eq:
		return a == b
	case exec.Ne:
		return a != b
	case exec.Lt:
		return a < b
	case exec.Le:
		return a <= b
	case exec.Gt:
		return a > b
	case exec.Ge:
		return a >= b
	}
	panic(fmt.Sprintf("cmp: unknown operator %d", op))
}

// TestBoundPredicatesMatchReference runs every predicate kind through
// Filter (over the nums x dims cross product) and through NLJoin (as
// the join condition), and requires both to keep exactly the tuples the
// by-name reference keeps, in the same order.
func TestBoundPredicatesMatchReference(t *testing.T) {
	v := newEnv(t, 20)
	ops := []exec.CmpOp{exec.Eq, exec.Ne, exec.Lt, exec.Le, exec.Gt, exec.Ge}
	var preds []exec.Pred
	for _, op := range ops {
		preds = append(preds,
			exec.IntCmp{Col: "k", Op: op, Val: 7},
			exec.ColCmp{Left: "grp", Right: "r_k", Op: op})
	}
	preds = append(preds,
		exec.IntRange{Col: "v", Lo: 30, Hi: 120},
		exec.StrEq{Col: "label", Val: "c"}, // stored NUL-padded to 8 bytes
		exec.StrEq{Col: "label", Val: "c\x00"},
		exec.StrEq{Col: "label", Val: ""},
		exec.ColEq{Left: "grp", Right: "r_k"},
		exec.And{
			exec.IntCmp{Col: "k", Op: exec.Ge, Val: 3},
			exec.And{exec.StrEq{Col: "label", Val: "b"}, exec.ColCmp{Left: "grp", Right: "r_k", Op: exec.Le}},
		},
		exec.And{},
		exec.True{},
	)
	keys := func(rows []catalog.Tuple) [][2]int64 {
		var out [][2]int64
		for _, r := range rows {
			out = append(out, [2]int64{r.Int(r.Schema.ColIndex("k")), r.Int(r.Schema.ColIndex("r_k"))})
		}
		return out
	}
	cross, err := exec.Collect(exec.NewNLJoin(v.ctx, v.scanNums(), v.scanDims(), exec.True{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(cross) != 200 {
		t.Fatalf("cross product has %d rows", len(cross))
	}
	for _, p := range preds {
		var want []catalog.Tuple
		for _, r := range cross {
			if refEval(p, r) {
				want = append(want, r)
			}
		}
		filtered, err := exec.Collect(exec.NewFilter(v.ctx,
			exec.NewNLJoin(v.ctx, v.scanNums(), v.scanDims(), exec.True{}), p))
		if err != nil {
			t.Fatal(err)
		}
		joined, err := exec.Collect(exec.NewNLJoin(v.ctx, v.scanNums(), v.scanDims(), p))
		if err != nil {
			t.Fatal(err)
		}
		w := fmt.Sprint(keys(want))
		if got := fmt.Sprint(keys(filtered)); got != w {
			t.Errorf("Filter %#v:\n got  %s\n want %s", p, got, w)
		}
		if got := fmt.Sprint(keys(joined)); got != w {
			t.Errorf("NLJoin %#v:\n got  %s\n want %s", p, got, w)
		}
	}
}

// tuplesIter yields fixed tuples; with repeat set it yields the first
// one forever.
type tuplesIter struct {
	rows   []catalog.Tuple
	repeat bool
	pos    int
}

func (it *tuplesIter) Open() error  { it.pos = 0; return nil }
func (it *tuplesIter) Close() error { return nil }

func (it *tuplesIter) Schema() *catalog.Schema { return it.rows[0].Schema }

func (it *tuplesIter) Next() (catalog.Tuple, bool, error) {
	if it.repeat {
		return it.rows[0], true, nil
	}
	if it.pos >= len(it.rows) {
		return catalog.Tuple{}, false, nil
	}
	it.pos++
	return it.rows[it.pos-1], true, nil
}

func tuple(sch *catalog.Schema, vals ...catalog.Value) catalog.Tuple {
	return catalog.Tuple{Schema: sch, Buf: sch.Encode(vals)}
}

// TestFilterRebindsOnSchemaChange feeds a Filter tuples of two schemas
// that hold the same column names at different positions: a binding
// kept from the first schema would read the wrong column of the second.
func TestFilterRebindsOnSchemaChange(t *testing.T) {
	ab := catalog.NewSchema(catalog.Column{Name: "a", Type: catalog.Int}, catalog.Column{Name: "b", Type: catalog.Int})
	ba := catalog.NewSchema(catalog.Column{Name: "b", Type: catalog.Int}, catalog.Column{Name: "a", Type: catalog.Int})
	child := &tuplesIter{rows: []catalog.Tuple{
		tuple(ab, catalog.V(1), catalog.V(2)), // a=1: match
		tuple(ba, catalog.V(1), catalog.V(2)), // a=2: no match
		tuple(ba, catalog.V(2), catalog.V(1)), // a=1: match
		tuple(ab, catalog.V(2), catalog.V(1)), // a=2: no match
		tuple(ab, catalog.V(1), catalog.V(3)), // a=1: match
	}}
	rows, err := exec.Collect(exec.NewFilter(&exec.Context{}, child, exec.IntCmp{Col: "a", Op: exec.Eq, Val: 1}))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rows {
		got = append(got, fmt.Sprintf("a=%d b=%d", r.Int(r.Schema.ColIndex("a")), r.Int(r.Schema.ColIndex("b"))))
	}
	if want := "[a=1 b=2 a=1 b=2 a=1 b=3]"; fmt.Sprint(got) != want {
		t.Errorf("filtered %v, want %s", got, want)
	}
}

func TestFilterNextAllocatesNothing(t *testing.T) {
	sch := catalog.NewSchema(
		catalog.Column{Name: "k", Type: catalog.Int},
		catalog.Column{Name: "s", Type: catalog.String, Len: 8},
		catalog.Column{Name: "j", Type: catalog.Int})
	child := &tuplesIter{rows: []catalog.Tuple{tuple(sch, catalog.V(5), catalog.SV("ab"), catalog.V(5))}, repeat: true}
	f := exec.NewFilter(&exec.Context{}, child, exec.And{
		exec.IntCmp{Col: "k", Op: exec.Ge, Val: 5},
		exec.IntRange{Col: "k", Lo: 0, Hi: 9},
		exec.StrEq{Col: "s", Val: "ab"},
		exec.ColEq{Left: "k", Right: "j"},
	})
	next := func() {
		if _, ok, err := f.Next(); !ok || err != nil {
			t.Fatalf("Next: %v %v", ok, err)
		}
	}
	next() // binds the predicate
	if n := testing.AllocsPerRun(100, next); n != 0 {
		t.Errorf("Filter.Next allocates %.1f times per row", n)
	}
}

// TestIndexScanNextAllocatesNothing reads a warmed clustered key range:
// each row's record is copied into the buffer the row before used, and
// its record lock's state comes off the lock table's free list.
func TestIndexScanNextAllocatesNothing(t *testing.T) {
	v := newEnv(t, 400)
	tbl := v.e.MustTable("nums")
	s := exec.NewIndexScan(v.ctx, tbl.Indexes["k"], tbl.Heap, tbl.Schema, 0, 399)
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	next := func() {
		if _, ok, err := s.Next(); !ok || err != nil {
			t.Fatalf("Next: %v %v", ok, err)
		}
	}
	next() // sizes the record buffer and pools the lock state
	if n := testing.AllocsPerRun(100, next); n != 0 {
		t.Errorf("IndexScan.Next allocates %.1f times per row", n)
	}
}

// TestIndexNLJoinNextAllocatesNothing joins warmed nums rows to
// themselves through the unique index on k: each outer row is copied
// into the buffer the row before used, and each outer key re-seats the
// join's one cursor.
func TestIndexNLJoinNextAllocatesNothing(t *testing.T) {
	v := newEnv(t, 400)
	tbl := v.e.MustTable("nums")
	outer := exec.NewIndexScan(v.ctx, tbl.Indexes["k"], tbl.Heap, tbl.Schema, 0, 399)
	j := exec.NewIndexNLJoin(v.ctx, outer, "k", tbl.Indexes["k"], tbl.Heap, tbl.Schema)
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	next := func() {
		if _, ok, err := j.Next(); !ok || err != nil {
			t.Fatalf("Next: %v %v", ok, err)
		}
	}
	next() // sizes the row buffers and pools the lock states
	if n := testing.AllocsPerRun(100, next); n != 0 {
		t.Errorf("IndexNLJoin.Next allocates %.1f times per row", n)
	}
}

// TestHashAggregateUpdateAllocatesNothing aggregates 8 and then 808
// rows of the same four groups: every row past a group's first updates
// it in place, so both runs allocate exactly the same.
func TestHashAggregateUpdateAllocatesNothing(t *testing.T) {
	sch := catalog.NewSchema(
		catalog.Column{Name: "g", Type: catalog.Int},
		catalog.Column{Name: "s", Type: catalog.String, Len: 8},
		catalog.Column{Name: "v", Type: catalog.Int})
	allocs := func(n int) float64 {
		child := &tuplesIter{}
		for i := 0; i < n; i++ {
			child.rows = append(child.rows, tuple(sch, catalog.V(int64(i%2)), catalog.SV([]string{"x", "yy"}[i/2%2]), catalog.V(int64(i))))
		}
		ctx := &exec.Context{Arena: probe.NewArena(0)}
		agg := exec.NewHashAggregate(ctx, child, []string{"g", "s"}, []exec.Agg{
			{Op: exec.Count, As: "n"}, {Op: exec.Sum, Col: "v", As: "sum"}, {Op: exec.Max, Col: "v", As: "max"},
		})
		return testing.AllocsPerRun(20, func() {
			if n, err := exec.Run(agg, nil); n != 4 || err != nil {
				t.Fatalf("aggregate: %d groups, %v", n, err)
			}
		})
	}
	if few, many := allocs(8), allocs(808); few != many {
		t.Errorf("aggregating 8 rows allocates %.0f times, 808 rows %.0f", few, many)
	}
}

// renderRows prints rows column by column, for golden comparisons.
func renderRows(rows []catalog.Tuple) string {
	var b strings.Builder
	for _, r := range rows {
		for i := 0; i < r.Schema.NumCols(); i++ {
			c := r.Schema.Col(i)
			if c.Type == catalog.Int {
				fmt.Fprintf(&b, "%s=%d ", c.Name, r.Int(i))
			} else {
				fmt.Fprintf(&b, "%s=%q ", c.Name, r.Str(i))
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestHashAggregateOutputPinned pins HashAggregate's rows and their
// order (sorted by the raw group-key bytes) on the exec fixtures, as
// computed before its group table was rekeyed.
func TestHashAggregateOutputPinned(t *testing.T) {
	v := newEnv(t, 40)
	all := []exec.Agg{
		{Op: exec.Count, As: "n"},
		{Op: exec.Sum, Col: "v", As: "sum_v"},
		{Op: exec.Min, Col: "k", As: "min_k"},
		{Op: exec.Max, Col: "k", As: "max_k"},
		{Op: exec.Avg, Col: "v", As: "avg_v"},
	}
	joined := func() exec.Iterator {
		return exec.NewNLJoin(v.ctx, v.scanNums(), v.scanDims(), exec.ColEq{Left: "grp", Right: "r_k"})
	}
	cases := []struct {
		name string
		it   exec.Iterator
		want string
	}{
		{"int", exec.NewHashAggregate(v.ctx, v.scanNums(), []string{"grp"}, all), "4 rows 47fedbb9db153b42937e490f0fe001d96755cee282dc809700debc3002d4f274"},
		{"int-wide", exec.NewHashAggregate(v.ctx, v.scanNums(), []string{"v"}, all[:2]), "40 rows 6527bb50693c601dbbca2a632fddf5080ba535bd988aa8a14360db81df27c452"},
		{"string", exec.NewHashAggregate(v.ctx, joined(), []string{"label"}, all), "4 rows 9e06c6ceb207a8deb0448dc15618b1c92f0d3f8a87731c77a0e0b6b77c810941"},
		{"int-string", exec.NewHashAggregate(v.ctx, joined(), []string{"label", "k"}, all[:1]), "40 rows 12b6e4df2fd2dcbc4167e30448ac5f0794f776cffed0af05fcaae4d89498cef3"},
		{"none", exec.NewHashAggregate(v.ctx, v.scanNums(), nil, all), "1 rows acbccd91cc00159df777ee0343edfbeb90a7a28f84bc1eb177073086008c772a"},
	}
	for _, c := range cases {
		rows, err := exec.Collect(c.it)
		if err != nil {
			t.Fatal(err)
		}
		out := renderRows(rows)
		if got := fmt.Sprintf("%d rows %x", len(rows), sha256.Sum256([]byte(out))); got != c.want {
			t.Errorf("%s aggregate: %s, want %s; rows:\n%s", c.name, got, c.want, out)
		}
	}
}
