package heap

import (
	"bytes"
	"fmt"
	"testing"

	"cgp/internal/db/lock"
	"cgp/internal/db/probe"
	"cgp/internal/db/storage"
	"cgp/internal/db/txn"
	"cgp/internal/program"
	"cgp/internal/trace"
)

type env struct {
	pool  *storage.BufferPool
	locks *lock.Manager
	txns  *txn.Manager
	file  *File
}

func newEnv(t *testing.T, frames int) *env {
	t.Helper()
	d := storage.NewDisk()
	pool := storage.NewBufferPool(d, frames, nil, storage.Funcs{})
	locks := lock.NewManager(nil, lock.Funcs{})
	log := txn.NewLog(nil, txn.Funcs{})
	txns := txn.NewManager(locks, log, nil, txn.Funcs{})
	f, err := Create("t", pool, locks, nil, Funcs{})
	if err != nil {
		t.Fatal(err)
	}
	return &env{pool: pool, locks: locks, txns: txns, file: f}
}

func TestCreateAndRead(t *testing.T) {
	e := newEnv(t, 16)
	tx := e.txns.Begin()
	var rids []storage.RID
	for i := 0; i < 50; i++ {
		rec := []byte(fmt.Sprintf("record-%03d", i))
		rid, err := e.file.CreateRec(tx, rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if e.file.NumRecords() != 50 {
		t.Errorf("records = %d", e.file.NumRecords())
	}
	var buf []byte // each read reuses the last one's buffer
	for i, rid := range rids {
		got, err := e.file.ReadRec(tx, rid, buf)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("record-%03d", i)
		if string(got) != want {
			t.Errorf("rid %v = %q, want %q", rid, got, want)
		}
		buf = got
	}
	e.txns.Commit(tx)
	if e.pool.PinnedFrames() != 0 {
		t.Errorf("%d pinned frames leaked", e.pool.PinnedFrames())
	}
}

func TestMultiPageGrowth(t *testing.T) {
	e := newEnv(t, 32)
	tx := e.txns.Begin()
	rec := make([]byte, 500)
	for i := 0; i < 100; i++ { // ~8 records per 4KB page -> ~13 pages
		if _, err := e.file.CreateRec(tx, rec); err != nil {
			t.Fatal(err)
		}
	}
	if e.file.NumPages() < 10 {
		t.Errorf("pages = %d, expected growth", e.file.NumPages())
	}
}

func TestUpdateAndDelete(t *testing.T) {
	e := newEnv(t, 16)
	tx := e.txns.Begin()
	rid, _ := e.file.CreateRec(tx, []byte("original!"))
	if err := e.file.UpdateRec(tx, rid, []byte("updated!!")); err != nil {
		t.Fatal(err)
	}
	got, _ := e.file.ReadRec(tx, rid, nil)
	if string(got) != "updated!!" {
		t.Errorf("after update: %q", got)
	}
	if err := e.file.DeleteRec(tx, rid); err != nil {
		t.Fatal(err)
	}
	if _, err := e.file.ReadRec(tx, rid, nil); err == nil {
		t.Error("read of deleted record succeeded")
	}
	if e.file.NumRecords() != 0 {
		t.Errorf("records = %d", e.file.NumRecords())
	}
}

func TestScanSeesAllLiveRecords(t *testing.T) {
	e := newEnv(t, 32)
	tx := e.txns.Begin()
	want := map[string]bool{}
	var rids []storage.RID
	for i := 0; i < 200; i++ {
		rec := []byte(fmt.Sprintf("r%04d", i))
		rid, err := e.file.CreateRec(tx, rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
		want[string(rec)] = true
	}
	// Delete every third record.
	for i := 0; i < 200; i += 3 {
		e.file.DeleteRec(tx, rids[i])
		delete(want, fmt.Sprintf("r%04d", i))
	}
	scan := e.file.OpenScan(tx)
	defer scan.Close()
	seen := map[string]bool{}
	for {
		rec, rid, ok, err := scan.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if !rid.Valid() {
			t.Fatal("invalid rid from scan")
		}
		seen[string(bytes.Clone(rec))] = true
	}
	if len(seen) != len(want) {
		t.Fatalf("scan saw %d records, want %d", len(seen), len(want))
	}
	for k := range want {
		if !seen[k] {
			t.Errorf("missing %q", k)
		}
	}
	if e.pool.PinnedFrames() != 0 {
		t.Errorf("%d pinned frames leaked by scan", e.pool.PinnedFrames())
	}
}

func TestScanEmptyFile(t *testing.T) {
	e := newEnv(t, 8)
	tx := e.txns.Begin()
	scan := e.file.OpenScan(tx)
	defer scan.Close()
	if _, _, ok, err := scan.Next(); ok || err != nil {
		t.Errorf("empty scan: ok=%v err=%v", ok, err)
	}
}

// TestFigure2CallSequence verifies the pedagogical call graph of the
// paper's Figure 2: Create_rec calls Find_page_in_buffer_pool, then
// (with a warm pool) Lock_page, Update_page, Unlock_page in that order —
// the stable sequence CGP's CGHC learns.
func TestFigure2CallSequence(t *testing.T) {
	reg := program.NewRegistry()
	sfns := storage.RegisterFuncs(reg)
	lfns := lock.RegisterFuncs(reg)
	tfns := txn.RegisterFuncs(reg)
	hfns := RegisterFuncs(reg)
	img := program.LayoutO5(reg)

	var rec trace.Capture
	b := trace.NewBatcher(&rec)
	tr := trace.NewTracer(img, b, 1)
	pr := probe.New(tr)

	d := storage.NewDisk()
	pool := storage.NewBufferPool(d, 16, pr, sfns)
	locks := lock.NewManager(pr, lfns)
	log := txn.NewLog(pr, tfns)
	txns := txn.NewManager(locks, log, pr, tfns)
	f, err := Create("fig2", pool, locks, pr, hfns)
	if err != nil {
		t.Fatal(err)
	}
	tx := txns.Begin()
	// Warm the pool with one record, then trace the second insert.
	if _, err := f.CreateRec(tx, []byte("warmup")); err != nil {
		t.Fatal(err)
	}
	b.Flush()
	rec.Events = nil
	if _, err := f.CreateRec(tx, []byte("traced")); err != nil {
		t.Fatal(err)
	}
	b.Flush()

	// Extract the sequence of direct callees of Create_rec.
	createRec := hfns.CreateRec
	var calls []string
	for _, ev := range rec.Events {
		if ev.Kind == trace.KindCall && ev.Caller == createRec {
			calls = append(calls, reg.Name(ev.Fn))
		}
	}
	want := []string{"Find_page_in_buffer_pool", "Lock_page", "Update_page", "Unlock_page"}
	// Helper calls may be interleaved; check the named subsequence.
	idx := 0
	for _, c := range calls {
		if idx < len(want) && c == want[idx] {
			idx++
		}
	}
	if idx != len(want) {
		t.Fatalf("Create_rec call sequence %v missing %v", calls, want[idx:])
	}
	// Getpage_from_disk must NOT appear (warm pool; §3.1's point).
	for _, c := range calls {
		if c == "Getpage_from_disk" {
			t.Error("warm-pool insert went to disk")
		}
	}
}
