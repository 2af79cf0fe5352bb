package txn_test

import (
	"fmt"
	"testing"

	"cgp/internal/db/heap"
	"cgp/internal/db/lock"
	"cgp/internal/db/storage"
	"cgp/internal/db/txn"
)

type crashEnv struct {
	disk  *storage.Disk
	log   *txn.Log
	pool  *storage.BufferPool
	locks *lock.Manager
	txns  *txn.Manager
	file  *heap.File
}

func newCrashEnv(t *testing.T) *crashEnv {
	t.Helper()
	d := storage.NewDisk()
	pool := storage.NewBufferPool(d, 64, nil, storage.Funcs{})
	locks := lock.NewManager(nil, lock.Funcs{})
	log := txn.NewLog(nil, txn.Funcs{})
	txns := txn.NewManager(locks, log, nil, txn.Funcs{})
	f, err := heap.Create("t", pool, locks, nil, heap.Funcs{})
	if err != nil {
		t.Fatal(err)
	}
	return &crashEnv{disk: d, log: log, pool: pool, locks: locks, txns: txns, file: f}
}

// crash drops the buffer pool WITHOUT flushing: only what reached disk
// plus the WAL survives.
func (e *crashEnv) crash(t *testing.T) *heap.File {
	t.Helper()
	if _, err := txn.Recover(e.disk, e.log); err != nil {
		t.Fatal(err)
	}
	pool := storage.NewBufferPool(e.disk, 64, nil, storage.Funcs{})
	locks := lock.NewManager(nil, lock.Funcs{})
	f, err := heap.Open("t", e.file.FirstPage(), pool, locks, nil, heap.Funcs{})
	if err != nil {
		t.Fatal(err)
	}
	e.pool = pool
	e.locks = locks
	e.txns = txn.NewManager(locks, txn.NewLog(nil, txn.Funcs{}), nil, txn.Funcs{})
	return f
}

func TestRecoverCommittedInserts(t *testing.T) {
	e := newCrashEnv(t)
	tx := e.txns.Begin()
	want := map[string]bool{}
	for i := 0; i < 120; i++ {
		rec := fmt.Sprintf("record-%04d", i)
		if _, err := e.file.CreateRec(tx, []byte(rec)); err != nil {
			t.Fatal(err)
		}
		want[rec] = true
	}
	if err := e.txns.Commit(tx); err != nil {
		t.Fatal(err)
	}
	// No FlushAll: the dirty pages die with the pool.
	recovered := e.crash(t)

	if recovered.NumRecords() != 120 {
		t.Fatalf("recovered %d records, want 120", recovered.NumRecords())
	}
	tx2 := e.txns.Begin()
	scan := recovered.OpenScan(tx2)
	defer scan.Close()
	seen := 0
	for {
		rec, _, ok, err := scan.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if !want[string(rec)] {
			t.Fatalf("recovered unexpected record %q", rec)
		}
		seen++
	}
	if seen != 120 {
		t.Fatalf("scan after recovery saw %d records", seen)
	}
}

func TestRecoverSkipsUncommitted(t *testing.T) {
	e := newCrashEnv(t)
	tx := e.txns.Begin()
	if _, err := e.file.CreateRec(tx, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	if err := e.txns.Commit(tx); err != nil {
		t.Fatal(err)
	}
	tx2 := e.txns.Begin()
	if _, err := e.file.CreateRec(tx2, []byte("in-flight")); err != nil {
		t.Fatal(err)
	}
	// tx2 never commits; crash.
	recovered := e.crash(t)
	if recovered.NumRecords() != 1 {
		t.Fatalf("recovered %d records, want 1 (uncommitted work replayed?)", recovered.NumRecords())
	}
}

func TestRecoverUpdateAndDelete(t *testing.T) {
	e := newCrashEnv(t)
	tx := e.txns.Begin()
	ridA, _ := e.file.CreateRec(tx, []byte("aaaaaaaa"))
	ridB, _ := e.file.CreateRec(tx, []byte("bbbbbbbb"))
	if err := e.file.UpdateRec(tx, ridA, []byte("AAAAAAAA")); err != nil {
		t.Fatal(err)
	}
	if err := e.file.DeleteRec(tx, ridB); err != nil {
		t.Fatal(err)
	}
	e.txns.Commit(tx)
	recovered := e.crash(t)

	tx2 := e.txns.Begin()
	got, err := recovered.ReadRec(tx2, ridA, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "AAAAAAAA" {
		t.Errorf("recovered update = %q", got)
	}
	if _, err := recovered.ReadRec(tx2, ridB, nil); err == nil {
		t.Error("deleted record came back after recovery")
	}
}

func TestRecoverIdempotent(t *testing.T) {
	e := newCrashEnv(t)
	tx := e.txns.Begin()
	for i := 0; i < 40; i++ {
		e.file.CreateRec(tx, []byte(fmt.Sprintf("r%03d", i)))
	}
	e.txns.Commit(tx)
	// Flush SOME state to disk, then recover twice: page LSNs must
	// prevent double application.
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Recover(e.disk, e.log); err != nil {
		t.Fatal(err)
	}
	n, err := txn.Recover(e.disk, e.log)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("second recovery replayed %d records (not idempotent)", n)
	}
	recovered := e.crash(t)
	if recovered.NumRecords() != 40 {
		t.Fatalf("records = %d", recovered.NumRecords())
	}
}

func TestRecoverPartialFlush(t *testing.T) {
	// The canonical WAL scenario: some dirty pages were evicted (and so
	// flushed), others were not; the LSN check replays exactly the gap.
	d := storage.NewDisk()
	pool := storage.NewBufferPool(d, 4, nil, storage.Funcs{}) // tiny: forces mid-run evictions
	locks := lock.NewManager(nil, lock.Funcs{})
	log := txn.NewLog(nil, txn.Funcs{})
	txns := txn.NewManager(locks, log, nil, txn.Funcs{})
	f, err := heap.Create("t", pool, locks, nil, heap.Funcs{})
	if err != nil {
		t.Fatal(err)
	}
	tx := txns.Begin()
	rec := make([]byte, 700) // ~5 records per page -> many pages, many evictions
	for i := 0; i < 60; i++ {
		rec[0] = byte(i)
		if _, err := f.CreateRec(tx, rec); err != nil {
			t.Fatal(err)
		}
	}
	txns.Commit(tx)

	if _, err := txn.Recover(d, log); err != nil {
		t.Fatal(err)
	}
	pool2 := storage.NewBufferPool(d, 64, nil, storage.Funcs{})
	locks2 := lock.NewManager(nil, lock.Funcs{})
	f2, err := heap.Open("t", f.FirstPage(), pool2, locks2, nil, heap.Funcs{})
	if err != nil {
		t.Fatal(err)
	}
	if f2.NumRecords() != 60 {
		t.Fatalf("recovered %d records, want 60", f2.NumRecords())
	}
}
