package exec_test

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"testing"

	"cgp/internal/db"
	"cgp/internal/db/catalog"
	"cgp/internal/db/exec"
	"cgp/internal/db/lock"
	"cgp/internal/db/storage"
	"cgp/internal/isa"
	"cgp/internal/program"
)

// recSink is a recording probe.Sink: it hashes every call with its
// arguments, and tracks the call depth so a test can require that
// every Enter met its Exit.
type recSink struct {
	h      hash.Hash
	b      []byte
	calls  int
	depth  int
	lowest int // below 0: an Exit without its Enter
}

func newRecSink() *recSink { return &recSink{h: sha256.New()} }

func (s *recSink) put(kind byte, a, b uint64) {
	s.b = append(s.b[:0], kind)
	s.b = binary.LittleEndian.AppendUint64(s.b, a)
	s.b = binary.LittleEndian.AppendUint64(s.b, b)
	s.h.Write(s.b)
	s.calls++
}

func (s *recSink) Enter(fn program.FuncID) {
	s.put('E', uint64(fn), 0)
	s.depth++
}

func (s *recSink) Exit() {
	s.put('X', 0, 0)
	s.depth--
	s.lowest = min(s.lowest, s.depth)
}

func (s *recSink) Work(n int) { s.put('W', uint64(n), 0) }

func (s *recSink) Data(addr isa.Addr, n int, write bool) {
	k := byte('r')
	if write {
		k = 'w'
	}
	s.put(k, uint64(addr), uint64(n))
}

func (s *recSink) digest() string { return fmt.Sprintf("%d calls %x", s.calls, s.h.Sum(nil)) }

// errIter yields rows and then, in place of row n, an error.
type errIter struct {
	rows []catalog.Tuple
	n    int
	pos  int
}

var errChild = errors.New("child failed")

func (it *errIter) Open() error             { it.pos = 0; return nil }
func (it *errIter) Close() error            { return nil }
func (it *errIter) Schema() *catalog.Schema { return it.rows[0].Schema }

func (it *errIter) Next() (catalog.Tuple, bool, error) {
	if it.pos == it.n {
		return catalog.Tuple{}, false, errChild
	}
	it.pos++
	return it.rows[(it.pos-1)%len(it.rows)], true, nil
}

// pathsEngine loads rows(k, grp, tag, v) with n rows into a pool of
// the given frame count: k = 0..n-1, grp = k%3, tag one of three
// strings, v = 7k.
func pathsEngine(t *testing.T, frames, n int) (*db.Engine, *db.Table) {
	t.Helper()
	e := db.NewEngine(db.Options{BufferFrames: frames})
	tx := e.Txns.Begin()
	tbl, err := e.CreateTable("rows", catalog.NewSchema(
		catalog.Column{Name: "k", Type: catalog.Int},
		catalog.Column{Name: "grp", Type: catalog.Int},
		catalog.Column{Name: "tag", Type: catalog.String, Len: 8},
		catalog.Column{Name: "v", Type: catalog.Int},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := e.InsertRow(tx, tbl, []catalog.Value{
			catalog.V(int64(i)), catalog.V(int64(i % 3)), catalog.SV([]string{"ab", "c", "defg"}[i%3]), catalog.V(int64(7 * i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Txns.Commit(tx); err != nil {
		t.Fatal(err)
	}
	return e, tbl
}

var pathsAggs = []exec.Agg{{Op: exec.Count, As: "n"}, {Op: exec.Sum, Col: "v", As: "s"}, {Op: exec.Max, Col: "k", As: "m"}}

// pinnedProbePaths are the digests of each scenario's probe calls,
// taken before the per-row methods traded their deferred Exits for
// explicit ones.
var pinnedProbePaths = map[string]string{
	"child-error":    "227 calls ecbb59078ea82658890ff343134add4c31eda0d31c91ebfbe0eaf207682f12d9",
	"pool-exhausted": "5504 calls 6d6b7e5d9f7417fad77c3470e1efe86ffb6df760f351ec643a377396205ff577",
	"missing-record": "351 calls bd8d6978c9f641b1444c266e5ff80dcf6f30e981945e8ba0cb94939f0e7609c1",
	"lock-conflict":  "272 calls f893f3fcc57c356dee33cf716a064ee7208eed270053de2dcb08c1c4253f71ab",
	"early-close":    "5026 calls d91d42aae03d931499c4d553dfc532119f8986dccce47c656ca5240c312f701e",
	"pool-direct":    "206 calls f672352d2ee53412b1f342c4ecec29484a4c9b1c2708fd2bd0541079f0baa6ce",
}

// TestProbePathsPinned drives the per-row methods of the scan, filter,
// aggregate, record, buffer-pool and lock paths through the paths the
// workloads never take — a child that fails mid-stream, a pool whose
// frames are all pinned, a missing record, a lock conflict, an early
// Close — and requires every Enter to meet its Exit and the recorded
// calls to match their pinned digests.
func TestProbePathsPinned(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(t *testing.T, sink *recSink)
	}{
		{"child-error", func(t *testing.T, sink *recSink) {
			e, tbl := pathsEngine(t, 64, 30)
			tx := e.Txns.Begin()
			rows, err := exec.Collect(exec.NewSeqScan(e.NewContext(tx), tbl.Heap, tbl.Schema))
			if err != nil {
				t.Fatal(err)
			}
			ctx := e.NewContext(tx)
			e.Pr.SetSink(sink)
			defer e.Pr.SetSink(nil)
			f := exec.NewFilter(ctx, &errIter{rows: rows, n: 17}, exec.And{
				exec.IntRange{Col: "k", Lo: 3, Hi: 40}, exec.StrEq{Col: "tag", Val: "c"},
			})
			if _, err := exec.Run(f, nil); !errors.Is(err, errChild) {
				t.Fatalf("filter over a failing child: %v", err)
			}
			agg := exec.NewHashAggregate(ctx, &errIter{rows: rows, n: 23}, []string{"tag", "grp"}, pathsAggs)
			if _, err := exec.Run(agg, nil); !errors.Is(err, errChild) {
				t.Fatalf("aggregate over a failing child: %v", err)
			}
		}},
		{"pool-exhausted", func(t *testing.T, sink *recSink) {
			e, tbl := pathsEngine(t, 8, 2000)
			// Bring the first three pages in and pin every resident
			// page, so the scan fails on the fourth page, mid-stream.
			for pid := tbl.Heap.FirstPage(); pid < tbl.Heap.FirstPage()+3; pid++ {
				f, err := e.Pool.GetPage(pid)
				if err != nil {
					t.Fatal(err)
				}
				e.Pool.Unpin(f, false)
			}
			for pid := 0; pid < e.Disk.NumPages(); pid++ {
				e.Pool.FindPage(storage.PageID(pid))
			}
			if n := e.Pool.PinnedFrames(); n != 8 {
				t.Fatalf("%d of 8 frames pinned", n)
			}
			ctx := e.NewContext(e.Txns.Begin())
			e.Pr.SetSink(sink)
			defer e.Pr.SetSink(nil)
			plan := exec.NewHashAggregate(ctx,
				exec.NewFilter(ctx, exec.NewSeqScan(ctx, tbl.Heap, tbl.Schema), exec.IntCmp{Col: "grp", Op: exec.Ne, Val: 1}),
				[]string{"grp"}, pathsAggs)
			if _, err := exec.Run(plan, nil); !errors.Is(err, storage.ErrNoFreeFrames) {
				t.Fatalf("scan of an exhausted pool: %v", err)
			}
		}},
		{"missing-record", func(t *testing.T, sink *recSink) {
			e, tbl := pathsEngine(t, 64, 50)
			tx := e.Txns.Begin()
			if _, err := e.CreateIndex(tx, "rows", "k", true); err != nil {
				t.Fatal(err)
			}
			gone := storage.RID{Page: tbl.Heap.FirstPage(), Slot: 4}
			if err := tbl.Heap.DeleteRec(tx, gone); err != nil {
				t.Fatal(err)
			}
			ctx := e.NewContext(tx)
			e.Pr.SetSink(sink)
			defer e.Pr.SetSink(nil)
			if _, err := tbl.Heap.ReadRec(tx, gone, nil); err == nil {
				t.Fatal("ReadRec of a deleted record succeeded")
			}
			if _, err := tbl.Heap.ReadRec(tx, storage.RID{Page: gone.Page, Slot: 999}, nil); err == nil {
				t.Fatal("ReadRec past the last slot succeeded")
			}
			// The index still names the deleted record, so the range
			// scan fails on its fifth row.
			is := exec.NewIndexScan(ctx, tbl.Indexes["k"], tbl.Heap, tbl.Schema, 0, 20)
			if n, err := exec.Run(is, nil); err == nil || n != 4 {
				t.Fatalf("index scan over a deleted record: %d rows, %v", n, err)
			}
			if _, _, err := exec.Fetch(ctx, tbl.Indexes["k"], tbl.Heap, tbl.Schema, 4); err == nil {
				t.Fatal("Fetch of a deleted record succeeded")
			}
		}},
		{"lock-conflict", func(t *testing.T, sink *recSink) {
			e, tbl := pathsEngine(t, 64, 50)
			tx := e.Txns.Begin()
			if _, err := e.CreateIndex(tx, "rows", "k", true); err != nil {
				t.Fatal(err)
			}
			writer := e.Txns.Begin()
			held := storage.RID{Page: tbl.Heap.FirstPage(), Slot: 6}
			if err := e.Locks.LockRecord(writer.Owner(), uint32(held.Page), held.Slot, lock.Exclusive); err != nil {
				t.Fatal(err)
			}
			ctx := e.NewContext(tx)
			e.Pr.SetSink(sink)
			defer e.Pr.SetSink(nil)
			if _, err := tbl.Heap.ReadRec(tx, held, nil); err == nil {
				t.Fatal("ReadRec under another owner's exclusive lock succeeded")
			}
			is := exec.NewIndexScan(ctx, tbl.Indexes["k"], tbl.Heap, tbl.Schema, 2, 30)
			if n, err := exec.Run(is, nil); err == nil || n != 4 {
				t.Fatalf("index scan over a locked record: %d rows, %v", n, err)
			}
			if err := e.Locks.LockRecord(tx.Owner(), uint32(held.Page), held.Slot, lock.Shared); err == nil {
				t.Fatal("shared lock granted beside an exclusive one")
			}
			e.Locks.UnlockRecord(tx.Owner(), uint32(held.Page), held.Slot) // not held: a no-op
			e.Locks.UnlockRecord(writer.Owner(), uint32(held.Page), held.Slot)
			if _, err := tbl.Heap.ReadRec(tx, held, nil); err != nil {
				t.Fatalf("ReadRec after the writer unlocked: %v", err)
			}
		}},
		{"early-close", func(t *testing.T, sink *recSink) {
			e, tbl := pathsEngine(t, 64, 300)
			ctx := e.NewContext(e.Txns.Begin())
			e.Pr.SetSink(sink)
			defer e.Pr.SetSink(nil)
			plans := []exec.Iterator{
				exec.NewSeqScan(ctx, tbl.Heap, tbl.Schema),
				exec.NewFilter(ctx, exec.NewSeqScan(ctx, tbl.Heap, tbl.Schema), exec.IntCmp{Col: "grp", Op: exec.Eq, Val: 2}),
				exec.NewHashAggregate(ctx, exec.NewSeqScan(ctx, tbl.Heap, tbl.Schema), []string{"tag"}, pathsAggs),
			}
			for i, p := range plans {
				if err := p.Open(); err != nil {
					t.Fatal(err)
				}
				for j := 0; j < 2; j++ {
					if _, ok, err := p.Next(); !ok || err != nil {
						t.Fatalf("plan %d row %d: %v %v", i, j, ok, err)
					}
				}
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
			}
			// A bare heap cursor closed in the middle of its second page.
			cur := tbl.Heap.OpenScan(ctx.Txn)
			for j := 0; j < 150; j++ {
				if _, _, ok, err := cur.Next(); !ok || err != nil {
					t.Fatalf("heap scan row %d: %v %v", j, ok, err)
				}
			}
			cur.Close()
			if n := e.Pool.PinnedFrames(); n != 0 {
				t.Fatalf("early Close left %d frames pinned", n)
			}
		}},
		{"pool-direct", func(t *testing.T, sink *recSink) {
			e, tbl := pathsEngine(t, 4, 600)
			e.Pr.SetSink(sink)
			defer e.Pr.SetSink(nil)
			for pid := tbl.Heap.FirstPage(); int(pid) < e.Disk.NumPages(); pid++ {
				if f, ok := e.Pool.FindPage(pid); ok {
					e.Pool.Unpin(f, false)
				}
				f, err := e.Pool.GetPage(pid)
				if err != nil {
					t.Fatal(err)
				}
				e.Pool.Unpin(f, pid%2 == 0)
			}
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			sink := newRecSink()
			sc.run(t, sink)
			if sink.lowest < 0 || sink.depth != 0 {
				t.Errorf("unbalanced probe calls: depth %d at the end, %d at the lowest", sink.depth, sink.lowest)
			}
			if got, want := sink.digest(), pinnedProbePaths[sc.name]; got != want {
				t.Errorf("probe calls moved:\n  got  %s\n  want %s", got, want)
			}
		})
	}
}
