package storage

import (
	"errors"
	"fmt"

	"cgp/internal/db/probe"
)

// Frame is one buffer-pool slot. Callers pin frames via GetPage/NewPage
// and must unpin them when done.
type Frame struct {
	id    PageID
	buf   []byte
	pin   int
	dirty bool
	ref   bool // clock reference bit
}

// ID returns the resident page's identifier.
func (f *Frame) ID() PageID { return f.id }

// Page returns the typed page view of the frame's buffer.
func (f *Frame) Page() Page { return AsPage(f.buf) }

// PinCount returns the current pin count (for tests and invariants).
func (f *Frame) PinCount() int { return f.pin }

// ErrNoFreeFrames is returned when every frame is pinned.
var ErrNoFreeFrames = errors.New("storage: buffer pool exhausted (all frames pinned)")

// PoolStats counts buffer-pool activity.
type PoolStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Flushes   int64
}

// BufferPool caches disk pages in up to a fixed number of frames with a
// clock replacement policy. A frame gets its page buffer the first time
// the clock picks it, so the frame count is a cap: a pool costs memory
// for the frames its pages have reached, not for every frame it may
// use. All methods are instrumented through the shared probe so page
// lookups show up in the simulated call graph exactly as the paper's
// Figure 2 describes.
type BufferPool struct {
	disk   *Disk
	frames []Frame
	table  map[PageID]int
	hand   int
	pr     *probe.Probe
	fns    Funcs
	stats  PoolStats
}

// NewBufferPool builds a pool of at most nframes frames over disk. It
// allocates only the frame headers; pages come on first use (victim).
func NewBufferPool(disk *Disk, nframes int, pr *probe.Probe, fns Funcs) *BufferPool {
	if nframes <= 0 {
		panic("storage: buffer pool needs at least one frame")
	}
	bp := &BufferPool{
		disk:   disk,
		frames: make([]Frame, nframes),
		table:  make(map[PageID]int),
		pr:     pr,
		fns:    fns,
	}
	for i := range bp.frames {
		bp.frames[i].id = InvalidPageID
	}
	return bp
}

// Stats returns a copy of the pool counters.
func (bp *BufferPool) Stats() PoolStats { return bp.stats }

// FindPage checks whether id is resident, pinning and returning its
// frame if so. This is the paper's Find_page_in_buffer_pool: with a
// large, mostly-warm pool it almost always hits, which is exactly the
// predictability CGP exploits.
func (bp *BufferPool) FindPage(id PageID) (*Frame, bool) {
	bp.pr.Enter(bp.fns.FindPageInBufferPool)
	defer bp.pr.Exit()
	bp.pr.Work(14)
	bp.pr.Enter(bp.fns.HashPageID)
	bp.pr.Work(9)
	bp.pr.Exit()
	bp.pr.Enter(bp.fns.LatchAcquire)
	bp.pr.Work(7)
	bp.pr.Exit()
	idx, ok := bp.table[id]
	defer func() {
		bp.pr.Enter(bp.fns.LatchRelease)
		bp.pr.Work(6)
		bp.pr.Exit()
	}()
	if !ok {
		bp.stats.Misses++
		return nil, false
	}
	bp.stats.Hits++
	f := &bp.frames[idx]
	bp.pr.Data(PageAddr(id), headerSize, false)
	f.pin++
	f.ref = true
	return f, true
}

// GetPage returns a pinned frame holding page id, reading it from disk
// if necessary.
func (bp *BufferPool) GetPage(id PageID) (*Frame, error) {
	if f, ok := bp.FindPage(id); ok {
		return f, nil
	}
	return bp.getpageFromDisk(id)
}

// getpageFromDisk loads id into a victim frame (the paper's
// Getpage_from_disk).
func (bp *BufferPool) getpageFromDisk(id PageID) (*Frame, error) {
	bp.pr.Enter(bp.fns.GetpageFromDisk)
	defer bp.pr.Exit()
	bp.pr.Work(70)
	i, err := bp.victim()
	if err != nil {
		return nil, err
	}
	f := &bp.frames[i]
	if err := bp.disk.Read(id, f.buf); err != nil {
		return nil, err
	}
	// The incoming page is written into the frame: a page-sized data
	// reference at the page's address.
	bp.pr.Data(PageAddr(id), PageSize, true)
	f.id = id
	f.pin = 1
	f.dirty = false
	f.ref = true
	bp.table[id] = i
	return f, nil
}

// NewPage allocates a fresh page on disk, formats it, and returns it
// pinned and dirty.
func (bp *BufferPool) NewPage() (*Frame, error) {
	bp.pr.Enter(bp.fns.AllocPage)
	defer bp.pr.Exit()
	bp.pr.Work(30)
	id := bp.disk.Allocate()
	i, err := bp.victim()
	if err != nil {
		return nil, err
	}
	f := &bp.frames[i]
	Format(f.buf, id)
	bp.pr.Data(PageAddr(id), headerSize, true)
	f.id = id
	f.pin = 1
	f.dirty = true
	f.ref = true
	bp.table[id] = i
	return f, nil
}

// Pin re-pins an already-resident frame.
func (bp *BufferPool) Pin(f *Frame) {
	bp.pr.Enter(bp.fns.PinPage)
	defer bp.pr.Exit()
	bp.pr.Work(6)
	f.pin++
	f.ref = true
}

// Unpin releases one pin, marking the page dirty if it was modified.
// Unpinning an unpinned frame panics: it indicates a broken caller that
// would corrupt replacement decisions.
func (bp *BufferPool) Unpin(f *Frame, dirty bool) {
	bp.pr.Enter(bp.fns.UnpinPage)
	defer bp.pr.Exit()
	bp.pr.Work(8)
	if f.pin <= 0 {
		panic(fmt.Sprintf("storage: unpin of unpinned page %d", f.id))
	}
	f.pin--
	if dirty {
		f.dirty = true
	}
}

// MarkDirty flags a pinned frame as modified without changing its pin
// count (for callers that unpin through a generic cleanup path).
func (bp *BufferPool) MarkDirty(f *Frame) { f.dirty = true }

// victim finds a free or evictable frame via the clock algorithm and
// returns its index, giving the frame its page buffer the first time
// it is picked.
func (bp *BufferPool) victim() (int, error) {
	n := len(bp.frames)
	// Two sweeps: the first clears reference bits, the second takes the
	// first unreferenced unpinned frame.
	for sweep := 0; sweep < 2*n; sweep++ {
		i := bp.hand
		f := &bp.frames[i]
		bp.hand = (bp.hand + 1) % n
		if f.pin > 0 {
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		if f.id != InvalidPageID {
			bp.stats.Evictions++
			if f.dirty {
				if err := bp.flush(f); err != nil {
					return -1, err
				}
			}
			delete(bp.table, f.id)
			f.id = InvalidPageID
		}
		if f.buf == nil {
			f.buf = make([]byte, PageSize)
		}
		return i, nil
	}
	return -1, ErrNoFreeFrames
}

// flush writes a dirty frame back to disk (the paper's Flush_page).
func (bp *BufferPool) flush(f *Frame) error {
	bp.pr.Enter(bp.fns.FlushPage)
	defer bp.pr.Exit()
	bp.pr.Work(50)
	bp.pr.Data(PageAddr(f.id), PageSize, false)
	bp.stats.Flushes++
	if err := bp.disk.Write(f.id, f.buf); err != nil {
		return err
	}
	f.dirty = false
	return nil
}

// FlushAll writes every dirty frame back (checkpoint).
func (bp *BufferPool) FlushAll() error {
	for i := range bp.frames {
		f := &bp.frames[i]
		if f.id != InvalidPageID && f.dirty {
			if err := bp.flush(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// PinnedFrames returns how many frames are currently pinned (invariant
// checks in tests).
func (bp *BufferPool) PinnedFrames() int {
	n := 0
	for i := range bp.frames {
		if bp.frames[i].pin > 0 {
			n++
		}
	}
	return n
}
