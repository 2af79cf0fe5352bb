// Package storage is the bottom layer of the database substrate: slotted
// pages, a simulated disk volume, and a buffer pool with pin/unpin and
// clock eviction. It mirrors the storage-manager layer of SHORE that the
// paper builds on (Figure 1), down to the function names of the
// pedagogical call graph in Figure 2 (Find_page_in_buffer_pool,
// Getpage_from_disk, ...).
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"

	"cgp/internal/isa"
)

// PageID identifies a disk page. Page 0 is valid; InvalidPageID marks
// "no page" in chain links.
type PageID uint32

// InvalidPageID is the nil page reference.
const InvalidPageID PageID = 0xFFFFFFFF

// PageSize is the size of every disk page in bytes.
const PageSize = 4096

// Page header layout (20 bytes):
//
//	0:4   pageID
//	4:6   slot count
//	6:8   free-space offset (start of unused region)
//	8:16  page LSN
//	16:20 next page in chain (heap files, B+-tree leaf chains)
//
// Slots grow downward from the end of the page, 4 bytes each
// (offset:2, length:2). A length of 0xFFFF marks a deleted slot.
const (
	headerSize   = 20
	slotSize     = 4
	deletedSlot  = 0xFFFF
	offPageID    = 0
	offSlotCount = 4
	offFreeOff   = 6
	offLSN       = 8
	offNext      = 16
)

// MaxRecordSize is the largest record a single page accepts.
const MaxRecordSize = PageSize - headerSize - slotSize

// ErrPageFull is returned when a record does not fit.
var ErrPageFull = errors.New("storage: page full")

// Page is a typed view over a page buffer. The zero value is invalid;
// obtain pages from a buffer-pool frame.
type Page struct {
	buf []byte
}

// AsPage wraps an existing (already formatted) page buffer.
func AsPage(buf []byte) Page {
	if len(buf) != PageSize {
		panic(fmt.Sprintf("storage: page buffer is %d bytes, want %d", len(buf), PageSize))
	}
	return Page{buf: buf}
}

// Format initializes buf as an empty page with the given ID and returns
// the page view.
func Format(buf []byte, id PageID) Page {
	p := AsPage(buf)
	for i := range buf {
		buf[i] = 0
	}
	binary.LittleEndian.PutUint32(buf[offPageID:], uint32(id))
	binary.LittleEndian.PutUint16(buf[offFreeOff:], headerSize)
	binary.LittleEndian.PutUint32(buf[offNext:], uint32(InvalidPageID))
	return p
}

// Raw exposes the full page buffer for components (like the B+-tree)
// that manage their own layout inside the page.
func (p Page) Raw() []byte { return p.buf }

// ID returns the page's identifier.
func (p Page) ID() PageID {
	return PageID(binary.LittleEndian.Uint32(p.buf[offPageID:]))
}

// NumSlots returns the slot-directory length (including deleted slots).
func (p Page) NumSlots() int {
	return int(binary.LittleEndian.Uint16(p.buf[offSlotCount:]))
}

func (p Page) freeOff() int {
	return int(binary.LittleEndian.Uint16(p.buf[offFreeOff:]))
}

// LSN returns the page LSN (for write-ahead logging).
func (p Page) LSN() uint64 { return binary.LittleEndian.Uint64(p.buf[offLSN:]) }

// SetLSN stamps the page LSN.
func (p Page) SetLSN(lsn uint64) { binary.LittleEndian.PutUint64(p.buf[offLSN:], lsn) }

// Next returns the next page in the chain, or InvalidPageID.
func (p Page) Next() PageID {
	return PageID(binary.LittleEndian.Uint32(p.buf[offNext:]))
}

// SetNext links the page chain.
func (p Page) SetNext(id PageID) {
	binary.LittleEndian.PutUint32(p.buf[offNext:], uint32(id))
}

func (p Page) slotAt(i int) (off, length int) {
	base := PageSize - (i+1)*slotSize
	return int(binary.LittleEndian.Uint16(p.buf[base:])),
		int(binary.LittleEndian.Uint16(p.buf[base+2:]))
}

func (p Page) setSlot(i, off, length int) {
	base := PageSize - (i+1)*slotSize
	binary.LittleEndian.PutUint16(p.buf[base:], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[base+2:], uint16(length))
}

// FreeSpace returns the bytes available for one more record (accounting
// for its slot entry).
func (p Page) FreeSpace() int {
	free := PageSize - p.NumSlots()*slotSize - p.freeOff() - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// Insert stores rec and returns its slot number.
func (p Page) Insert(rec []byte) (int, error) {
	if len(rec) > MaxRecordSize {
		return 0, fmt.Errorf("storage: record of %d bytes exceeds max %d", len(rec), MaxRecordSize)
	}
	if len(rec) > p.FreeSpace() {
		return 0, ErrPageFull
	}
	off := p.freeOff()
	copy(p.buf[off:], rec)
	slot := p.NumSlots()
	p.setSlot(slot, off, len(rec))
	binary.LittleEndian.PutUint16(p.buf[offSlotCount:], uint16(slot+1))
	binary.LittleEndian.PutUint16(p.buf[offFreeOff:], uint16(off+len(rec)))
	return slot, nil
}

// Record returns the record in slot i and the simulated address of its
// bytes, for callers that trace the reference, in one decode of the
// slot. The returned slice aliases the page buffer; callers must copy
// if they retain it.
func (p Page) Record(i int) ([]byte, isa.Addr, bool) {
	if i < 0 || i >= p.NumSlots() {
		return nil, 0, false
	}
	off, length := p.slotAt(i)
	if length == deletedSlot {
		return nil, 0, false
	}
	return p.buf[off : off+length], PageAddr(p.ID()) + isa.Addr(off), true
}

// Delete marks slot i deleted. The space is not compacted (SHORE-style
// lazy deletion).
func (p Page) Delete(i int) bool {
	if i < 0 || i >= p.NumSlots() {
		return false
	}
	off, length := p.slotAt(i)
	if length == deletedSlot {
		return false
	}
	p.setSlot(i, off, deletedSlot)
	return true
}

// Update overwrites slot i in place. The new record must not be longer
// than the old one (fixed-width tuples always satisfy this).
func (p Page) Update(i int, rec []byte) error {
	if i < 0 || i >= p.NumSlots() {
		return fmt.Errorf("storage: update of missing slot %d", i)
	}
	off, length := p.slotAt(i)
	if length == deletedSlot {
		return fmt.Errorf("storage: update of deleted slot %d", i)
	}
	if len(rec) > length {
		return fmt.Errorf("storage: update grows record from %d to %d bytes", length, len(rec))
	}
	copy(p.buf[off:], rec)
	if len(rec) < length {
		p.setSlot(i, off, len(rec))
	}
	return nil
}

// PageAddr maps a page to its simulated data address.
func PageAddr(id PageID) isa.Addr {
	return isa.DataBase + isa.Addr(uint64(id)*PageSize)
}

// RID names a record: page plus slot.
type RID struct {
	Page PageID
	Slot uint16
}

// InvalidRID is the nil record reference.
var InvalidRID = RID{Page: InvalidPageID}

// Valid reports whether the RID refers to a record.
func (r RID) Valid() bool { return r.Page != InvalidPageID }

// Less orders RIDs (page-major) for deterministic iteration.
func (r RID) Less(o RID) bool {
	if r.Page != o.Page {
		return r.Page < o.Page
	}
	return r.Slot < o.Slot
}
