// Package heap implements heap files — unordered record files over the
// buffer pool — including the paper's pedagogical entry point Create_rec
// (Figure 2): Create_rec calls Find_page_in_buffer_pool, falls back to
// Getpage_from_disk on a pool miss, then Lock_page, Update_page and
// Unlock_page. That call sequence, stable across millions of record
// insertions, is exactly the predictability CGP feeds on.
package heap

import (
	"fmt"

	"cgp/internal/db/lock"
	"cgp/internal/db/probe"
	"cgp/internal/db/storage"
	"cgp/internal/db/txn"
	"cgp/internal/program"
)

// Funcs holds the instrumented-function IDs of the record layer.
type Funcs struct {
	CreateRec  program.FuncID
	ReadRec    program.FuncID
	UpdateRec  program.FuncID
	DeleteRec  program.FuncID
	UpdatePage program.FuncID
	ScanOpen   program.FuncID
	ScanNext   program.FuncID
	ExtendFile program.FuncID
	MemcpyRec  program.FuncID
}

// RegisterFuncs registers the record-layer functions.
func RegisterFuncs(reg *program.Registry) Funcs {
	return Funcs{
		CreateRec:  reg.Register("Create_rec", 310),
		ReadRec:    reg.Register("Read_rec", 180),
		UpdateRec:  reg.Register("Update_rec", 260),
		DeleteRec:  reg.Register("Delete_rec", 240),
		UpdatePage: reg.Register("Update_page", 200),
		ScanOpen:   reg.Register("Heap_scan_open", 160),
		ScanNext:   reg.Register("Heap_scan_next", 230),
		ExtendFile: reg.Register("Extend_file", 280),
		MemcpyRec:  reg.Register("Memcpy_rec", 120),
	}
}

// File is one heap file: a chain of slotted pages.
type File struct {
	name  string
	pool  *storage.BufferPool
	locks *lock.Manager
	pr    *probe.Probe
	fns   Funcs

	first, last storage.PageID
	nRecords    int64
	nPages      int
}

// Create makes an empty heap file.
func Create(name string, pool *storage.BufferPool, locks *lock.Manager, pr *probe.Probe, fns Funcs) (*File, error) {
	f := &File{
		name:  name,
		pool:  pool,
		locks: locks,
		pr:    pr,
		fns:   fns,
		first: storage.InvalidPageID,
		last:  storage.InvalidPageID,
	}
	return f, nil
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// NumRecords returns the live record count.
func (f *File) NumRecords() int64 { return f.nRecords }

// NumPages returns the page count.
func (f *File) NumPages() int { return f.nPages }

// FirstPage returns the head of the page chain.
func (f *File) FirstPage() storage.PageID { return f.first }

// Open reattaches a heap file to an existing page chain (after
// recovery): it walks the chain to rebuild the record count and tail
// pointer.
func Open(name string, first storage.PageID, pool *storage.BufferPool, locks *lock.Manager, pr *probe.Probe, fns Funcs) (*File, error) {
	f := &File{
		name:  name,
		pool:  pool,
		locks: locks,
		pr:    pr,
		fns:   fns,
		first: first,
		last:  storage.InvalidPageID,
	}
	pid := first
	for pid != storage.InvalidPageID {
		frame, err := pool.GetPage(pid)
		if err != nil {
			return nil, err
		}
		page := frame.Page()
		for s := 0; s < page.NumSlots(); s++ {
			if _, _, ok := page.Record(s); ok {
				f.nRecords++
			}
		}
		f.nPages++
		f.last = pid
		pid = page.Next()
		pool.Unpin(frame, false)
	}
	return f, nil
}

// CreateRec appends a record, returning its RID. This is the paper's
// Create_rec: find the page, lock it, update it, unlock it.
func (f *File) CreateRec(t *txn.Txn, rec []byte) (storage.RID, error) {
	f.pr.Enter(f.fns.CreateRec)
	defer f.pr.Exit()
	f.pr.Work(22)

	frame, err := f.targetFrame(t)
	if err != nil {
		return storage.InvalidRID, err
	}
	page := frame.Page()
	if len(rec) > page.FreeSpace() {
		f.pool.Unpin(frame, false)
		if frame, err = f.extend(t); err != nil {
			return storage.InvalidRID, err
		}
		page = frame.Page()
	}
	pid := page.ID()
	if err := f.locks.LockPage(t.Owner(), uint32(pid), lock.Exclusive); err != nil {
		f.pool.Unpin(frame, false)
		return storage.InvalidRID, err
	}
	slot, err := f.updatePageInsert(t, page, rec)
	f.locks.UnlockPage(t.Owner(), uint32(pid))
	if err != nil {
		f.pool.Unpin(frame, false)
		return storage.InvalidRID, err
	}
	f.pool.Unpin(frame, true)
	f.nRecords++
	return storage.RID{Page: pid, Slot: uint16(slot)}, nil
}

// updatePageInsert is the paper's Update_page applied to an insertion.
func (f *File) updatePageInsert(t *txn.Txn, page storage.Page, rec []byte) (int, error) {
	f.pr.Enter(f.fns.UpdatePage)
	defer f.pr.Exit()
	f.pr.Work(16)
	slot, err := page.Insert(rec)
	if err != nil {
		return 0, err
	}
	f.pr.Enter(f.fns.MemcpyRec)
	f.pr.Work(8 + len(rec)/16)
	f.pr.Exit()
	stored, addr, _ := page.Record(slot)
	f.pr.Data(addr, len(stored), true)
	lsn := t.LogInsert(page.ID(), uint16(slot), rec)
	page.SetLSN(lsn)
	return slot, nil
}

// targetFrame pins the page an insertion should try first (the tail of
// the chain), creating the first page on demand.
func (f *File) targetFrame(t *txn.Txn) (*storage.Frame, error) {
	if f.last == storage.InvalidPageID {
		return f.extend(t)
	}
	if frame, ok := f.pool.FindPage(f.last); ok {
		return frame, nil
	}
	return f.pool.GetPage(f.last)
}

// extend appends a fresh page to the chain.
func (f *File) extend(t *txn.Txn) (*storage.Frame, error) {
	f.pr.Enter(f.fns.ExtendFile)
	defer f.pr.Exit()
	f.pr.Work(30)
	frame, err := f.pool.NewPage()
	if err != nil {
		return nil, err
	}
	newID := frame.Page().ID()
	frame.Page().SetLSN(t.LogFormatPage(newID))
	if f.last != storage.InvalidPageID {
		prev, err := f.pool.GetPage(f.last)
		if err != nil {
			f.pool.Unpin(frame, true)
			return nil, err
		}
		prev.Page().SetNext(newID)
		prev.Page().SetLSN(t.LogSetNext(f.last, newID))
		f.pool.Unpin(prev, true)
	} else {
		f.first = newID
	}
	f.last = newID
	f.nPages++
	return frame, nil
}

// ReadRec copies the record at rid into buf, reusing its storage when it
// has room, and returns the copy. A nil buf gets a fresh slice.
func (f *File) ReadRec(t *txn.Txn, rid storage.RID, buf []byte) ([]byte, error) {
	f.pr.Enter(f.fns.ReadRec)
	f.pr.Work(14)
	o, pid := t.Owner(), uint32(rid.Page)
	if err := f.locks.LockRecord(o, pid, rid.Slot, lock.Shared); err != nil {
		f.pr.Exit()
		return nil, err
	}
	frame, err := f.pool.GetPage(rid.Page)
	if err != nil {
		f.locks.UnlockRecord(o, pid, rid.Slot)
		f.pr.Exit()
		return nil, err
	}
	rec, addr, ok := frame.Page().Record(int(rid.Slot))
	if ok {
		f.pr.Data(addr, len(rec), false)
		f.pr.Enter(f.fns.MemcpyRec)
		f.pr.Work(8 + len(rec)/16)
		f.pr.Exit()
		buf = append(buf[:0], rec...)
	}
	f.pool.Unpin(frame, false)
	f.locks.UnlockRecord(o, pid, rid.Slot)
	f.pr.Exit()
	if !ok {
		return nil, fmt.Errorf("heap %s: no record at %v", f.name, rid)
	}
	return buf, nil
}

// UpdateRec overwrites the record at rid in place.
func (f *File) UpdateRec(t *txn.Txn, rid storage.RID, rec []byte) error {
	f.pr.Enter(f.fns.UpdateRec)
	defer f.pr.Exit()
	f.pr.Work(18)
	if err := f.locks.LockPage(t.Owner(), uint32(rid.Page), lock.Exclusive); err != nil {
		return err
	}
	defer f.locks.UnlockPage(t.Owner(), uint32(rid.Page))
	frame, err := f.pool.GetPage(rid.Page)
	if err != nil {
		return err
	}
	defer f.pool.Unpin(frame, true)
	page := frame.Page()
	f.pr.Enter(f.fns.UpdatePage)
	err = page.Update(int(rid.Slot), rec)
	if err == nil {
		stored, addr, _ := page.Record(int(rid.Slot))
		f.pr.Data(addr, len(stored), true)
		page.SetLSN(t.LogRecUpdate(rid.Page, rid.Slot, rec))
	}
	f.pr.Exit()
	return err
}

// DeleteRec removes the record at rid.
func (f *File) DeleteRec(t *txn.Txn, rid storage.RID) error {
	f.pr.Enter(f.fns.DeleteRec)
	defer f.pr.Exit()
	f.pr.Work(16)
	if err := f.locks.LockPage(t.Owner(), uint32(rid.Page), lock.Exclusive); err != nil {
		return err
	}
	defer f.locks.UnlockPage(t.Owner(), uint32(rid.Page))
	frame, err := f.pool.GetPage(rid.Page)
	if err != nil {
		return err
	}
	defer f.pool.Unpin(frame, true)
	page := frame.Page()
	if !page.Delete(int(rid.Slot)) {
		return fmt.Errorf("heap %s: delete of missing record %v", f.name, rid)
	}
	page.SetLSN(t.LogRecDelete(rid.Page, rid.Slot))
	f.nRecords--
	return nil
}

// Scan is a forward cursor over every live record in the file.
type Scan struct {
	file  *File
	txn   *txn.Txn
	frame *storage.Frame
	pid   storage.PageID
	slot  int
}

// OpenScan starts a scan.
func (f *File) OpenScan(t *txn.Txn) *Scan {
	f.pr.Enter(f.fns.ScanOpen)
	defer f.pr.Exit()
	f.pr.Work(20)
	return &Scan{file: f, txn: t, pid: f.first, slot: 0}
}

// Next returns the next record and its RID, or ok=false at end of file.
// The returned record aliases the page buffer and is only valid until
// the next call.
func (s *Scan) Next() ([]byte, storage.RID, bool, error) {
	f := s.file
	f.pr.Enter(f.fns.ScanNext)
	f.pr.Work(10)
	for {
		if s.pid == storage.InvalidPageID {
			s.releaseFrame()
			f.pr.Exit()
			return nil, storage.InvalidRID, false, nil
		}
		if s.frame == nil {
			frame, err := f.pool.GetPage(s.pid)
			if err != nil {
				f.pr.Exit()
				return nil, storage.InvalidRID, false, err
			}
			s.frame = frame
		}
		page := s.frame.Page()
		for slots := page.NumSlots(); s.slot < slots; {
			slot := s.slot
			s.slot++
			if rec, addr, ok := page.Record(slot); ok {
				// A scan examines the record header and the predicate
				// columns; only accepted tuples are read in full (by the
				// consumer), so the scan itself touches a prefix.
				f.pr.Data(addr, min(len(rec), 96), false)
				f.pr.Exit()
				return rec, storage.RID{Page: s.pid, Slot: uint16(slot)}, true, nil
			}
		}
		next := page.Next()
		s.releaseFrame()
		s.pid = next
		s.slot = 0
	}
}

// Close releases the scan's pinned page.
func (s *Scan) Close() { s.releaseFrame() }

func (s *Scan) releaseFrame() {
	if s.frame != nil {
		s.file.pool.Unpin(s.frame, false)
		s.frame = nil
	}
}
