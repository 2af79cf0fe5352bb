package storage

import (
	"bytes"
	"testing"
	"testing/quick"
)

func newPage(t *testing.T) Page {
	t.Helper()
	return Format(make([]byte, PageSize), 7)
}

func TestPageFormat(t *testing.T) {
	p := newPage(t)
	if p.ID() != 7 {
		t.Errorf("id = %d", p.ID())
	}
	if p.NumSlots() != 0 {
		t.Errorf("slots = %d", p.NumSlots())
	}
	if p.Next() != InvalidPageID {
		t.Errorf("next = %d", p.Next())
	}
	if p.FreeSpace() < PageSize-64 {
		t.Errorf("free space = %d", p.FreeSpace())
	}
}

func TestPageInsertGet(t *testing.T) {
	p := newPage(t)
	recs := [][]byte{[]byte("hello"), []byte("world!"), {1, 2, 3}}
	for i, r := range recs {
		slot, err := p.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		if slot != i {
			t.Errorf("slot = %d, want %d", slot, i)
		}
	}
	for i, r := range recs {
		got, ok := p.Get(i)
		if !ok || !bytes.Equal(got, r) {
			t.Errorf("Get(%d) = %q,%v", i, got, ok)
		}
	}
	if _, ok := p.Get(99); ok {
		t.Error("Get of missing slot succeeded")
	}
	if _, ok := p.Get(-1); ok {
		t.Error("Get(-1) succeeded")
	}
}

func TestPageDelete(t *testing.T) {
	p := newPage(t)
	p.Insert([]byte("a"))
	p.Insert([]byte("b"))
	if !p.Delete(0) {
		t.Fatal("delete failed")
	}
	if _, ok := p.Get(0); ok {
		t.Error("deleted record still readable")
	}
	if p.Delete(0) {
		t.Error("double delete succeeded")
	}
	if got, ok := p.Get(1); !ok || string(got) != "b" {
		t.Errorf("neighbour affected: %q,%v", got, ok)
	}
}

func TestPageUpdate(t *testing.T) {
	p := newPage(t)
	p.Insert([]byte("abcdef"))
	if err := p.Update(0, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Get(0); string(got) != "xyz" {
		t.Errorf("after shrink update: %q", got)
	}
	if err := p.Update(0, []byte("toolongnow")); err == nil {
		t.Error("growing update succeeded")
	}
}

func TestPageFull(t *testing.T) {
	p := newPage(t)
	rec := make([]byte, 100)
	n := 0
	for {
		if _, err := p.Insert(rec); err != nil {
			if err != ErrPageFull {
				t.Fatalf("unexpected error %v", err)
			}
			break
		}
		n++
	}
	// 4096-20 header bytes, 104 bytes per record+slot: ~39 records.
	if n < 35 || n > 40 {
		t.Errorf("page held %d 100-byte records", n)
	}
}

func TestPageOversizeRecord(t *testing.T) {
	p := newPage(t)
	if _, err := p.Insert(make([]byte, MaxRecordSize+1)); err == nil {
		t.Error("oversize insert succeeded")
	}
}

func TestPageChainAndLSN(t *testing.T) {
	p := newPage(t)
	p.SetNext(42)
	p.SetLSN(777)
	if p.Next() != 42 || p.LSN() != 777 {
		t.Errorf("next/lsn = %d/%d", p.Next(), p.LSN())
	}
}

// Property: any sequence of inserts that fit can be read back intact.
func TestPageRoundTripProperty(t *testing.T) {
	f := func(recs [][]byte) bool {
		p := Format(make([]byte, PageSize), 1)
		var kept [][]byte
		for _, r := range recs {
			if len(r) > 200 {
				r = r[:200]
			}
			if _, err := p.Insert(r); err != nil {
				break
			}
			kept = append(kept, r)
		}
		for i, r := range kept {
			got, ok := p.Get(i)
			if !ok || !bytes.Equal(got, r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDiskReadWrite(t *testing.T) {
	d := NewDisk()
	id := d.Allocate()
	buf := make([]byte, PageSize)
	buf[0] = 0xAB
	if err := d.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, PageSize)
	if err := d.Read(id, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 0xAB {
		t.Error("read back wrong data")
	}
	if err := d.Read(99, out); err == nil {
		t.Error("read of unallocated page succeeded")
	}
	if d.Reads() != 1 || d.Writes() != 1 {
		t.Errorf("io counts = %d/%d", d.Reads(), d.Writes())
	}
}

func TestRIDOrdering(t *testing.T) {
	a := RID{Page: 1, Slot: 2}
	b := RID{Page: 1, Slot: 3}
	c := RID{Page: 2, Slot: 0}
	if !a.Less(b) || !b.Less(c) || c.Less(a) {
		t.Error("RID ordering broken")
	}
	if InvalidRID.Valid() {
		t.Error("InvalidRID is valid")
	}
	if !a.Valid() {
		t.Error("real RID invalid")
	}
}

func TestBufferPoolHitAndMiss(t *testing.T) {
	d := NewDisk()
	bp := NewBufferPool(d, 4, nil, Funcs{})
	f, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	bp.Unpin(f, true)

	if _, ok := bp.FindPage(id); !ok {
		t.Fatal("resident page not found")
	}
	st := bp.Stats()
	if st.Hits != 1 {
		t.Errorf("hits = %d", st.Hits)
	}
	f2, _ := bp.FindPage(id)
	bp.Unpin(f2, false)
}

func TestBufferPoolEvictionAndReload(t *testing.T) {
	d := NewDisk()
	bp := NewBufferPool(d, 2, nil, Funcs{})
	var ids []PageID
	for i := 0; i < 4; i++ {
		f, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		f.Page().Raw()[100] = byte(i)
		ids = append(ids, f.ID())
		bp.Unpin(f, true)
	}
	// Pages 0 and 1 must have been evicted (and flushed since dirty).
	if _, ok := bp.FindPage(ids[0]); ok {
		t.Fatal("page 0 still resident in 2-frame pool after 4 pages")
	}
	f, err := bp.GetPage(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if f.Page().Raw()[100] != 0 {
		t.Error("evicted dirty page lost its contents")
	}
	bp.Unpin(f, false)
	if bp.Stats().Evictions == 0 || bp.Stats().Flushes == 0 {
		t.Errorf("stats = %+v", bp.Stats())
	}
}

func TestBufferPoolPinnedNotEvicted(t *testing.T) {
	d := NewDisk()
	bp := NewBufferPool(d, 2, nil, Funcs{})
	a, _ := bp.NewPage()
	b, _ := bp.NewPage()
	// Both pinned: a third page must fail.
	if _, err := bp.NewPage(); err != ErrNoFreeFrames {
		t.Fatalf("err = %v, want ErrNoFreeFrames", err)
	}
	bp.Unpin(a, false)
	if _, err := bp.NewPage(); err != nil {
		t.Fatalf("eviction of unpinned frame failed: %v", err)
	}
	if _, ok := bp.FindPage(b.ID()); !ok {
		t.Error("pinned page was evicted")
	} else {
		bp.Unpin(b, false)
	}
}

func TestBufferPoolOverUnpinPanics(t *testing.T) {
	d := NewDisk()
	bp := NewBufferPool(d, 2, nil, Funcs{})
	f, _ := bp.NewPage()
	bp.Unpin(f, false)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on double unpin")
		}
	}()
	bp.Unpin(f, false)
}

func TestBufferPoolFlushAll(t *testing.T) {
	d := NewDisk()
	bp := NewBufferPool(d, 4, nil, Funcs{})
	f, _ := bp.NewPage()
	f.Page().Raw()[50] = 0x5A
	id := f.ID()
	bp.Unpin(f, true)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, PageSize)
	d.Read(id, out)
	if out[50] != 0x5A {
		t.Error("FlushAll did not persist dirty page")
	}
}

func TestBufferPoolPinCounting(t *testing.T) {
	d := NewDisk()
	bp := NewBufferPool(d, 4, nil, Funcs{})
	f, _ := bp.NewPage()
	bp.Pin(f)
	if f.PinCount() != 2 {
		t.Errorf("pin = %d", f.PinCount())
	}
	bp.Unpin(f, false)
	bp.Unpin(f, false)
	if bp.PinnedFrames() != 0 {
		t.Errorf("pinned frames = %d", bp.PinnedFrames())
	}
}

// Property: after arbitrary interleavings of get/unpin, every page's
// content survives eviction round trips.
func TestBufferPoolContentProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		d := NewDisk()
		bp := NewBufferPool(d, 3, nil, Funcs{})
		var ids []PageID
		for i := 0; i < 8; i++ {
			fr, err := bp.NewPage()
			if err != nil {
				return false
			}
			fr.Page().Raw()[200] = byte(i + 1)
			ids = append(ids, fr.ID())
			bp.Unpin(fr, true)
		}
		for _, op := range ops {
			id := ids[int(op)%len(ids)]
			fr, err := bp.GetPage(id)
			if err != nil {
				return false
			}
			if fr.Page().Raw()[200] != byte(int(op)%len(ids)+1) {
				return false
			}
			bp.Unpin(fr, false)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestNewBufferPoolAllocatesNoPages: building a pool allocates its
// frame headers and page table only, the same few objects for 8 frames
// as for 8192; a frame's page comes the first time the clock picks it.
func TestNewBufferPoolAllocatesNoPages(t *testing.T) {
	d := NewDisk()
	small := testing.AllocsPerRun(20, func() { NewBufferPool(d, 8, nil, Funcs{}) })
	large := testing.AllocsPerRun(20, func() { NewBufferPool(d, 8192, nil, Funcs{}) })
	if large != small || large > 4 {
		t.Errorf("NewBufferPool allocs: %v at 8 frames, %v at 8192; want the same small constant", small, large)
	}
}

// heldPages counts the frames that have been given a page buffer.
func heldPages(bp *BufferPool) int {
	n := 0
	for i := range bp.frames {
		if bp.frames[i].buf != nil {
			n++
		}
	}
	return n
}

// TestBufferPoolPagesOnFirstUse: k distinct pages through a pool far
// larger than k leave exactly k frames holding a page, however often
// the pages are fetched again.
func TestBufferPoolPagesOnFirstUse(t *testing.T) {
	const k = 37
	d := NewDisk()
	bp := NewBufferPool(d, 8192, nil, Funcs{})
	if got := heldPages(bp); got != 0 {
		t.Fatalf("fresh pool holds %d pages, want 0", got)
	}
	var ids []PageID
	for i := 0; i < k; i++ {
		f, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f.ID())
		bp.Unpin(f, true)
	}
	for round := 0; round < 3; round++ {
		for _, id := range ids {
			f, err := bp.GetPage(id)
			if err != nil {
				t.Fatal(err)
			}
			bp.Unpin(f, false)
		}
	}
	if got := heldPages(bp); got != k {
		t.Errorf("%d distinct pages left %d frames holding a page, want %d", k, got, k)
	}
}

// TestBufferPoolEvictionReusesPages: once both frames of a 2-frame pool
// hold a page, evicting and reloading pages allocates nothing: a
// reloaded page goes into the evicted frame's buffer.
func TestBufferPoolEvictionReusesPages(t *testing.T) {
	d := NewDisk()
	bp := NewBufferPool(d, 2, nil, Funcs{})
	var ids []PageID
	for i := 0; i < 5; i++ {
		f, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		f.Page().Raw()[100] = byte(i)
		ids = append(ids, f.ID())
		bp.Unpin(f, true)
	}
	if got := heldPages(bp); got != 2 {
		t.Fatalf("2-frame pool holds %d pages, want 2", got)
	}
	next := 0
	allocs := testing.AllocsPerRun(100, func() {
		f, err := bp.GetPage(ids[next%len(ids)])
		if err != nil {
			t.Fatal(err)
		}
		if f.Page().Raw()[100] != byte(next%len(ids)) {
			t.Fatalf("page %d lost its contents", next%len(ids))
		}
		bp.Unpin(f, false)
		next++
	})
	if allocs != 0 {
		t.Errorf("eviction allocated %v objects per fetch, want 0", allocs)
	}
	if bp.Stats().Evictions < 100 {
		t.Errorf("only %d evictions: the fetches did not cycle the pool", bp.Stats().Evictions)
	}
}
