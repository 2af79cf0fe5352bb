// Package index implements a page-based B+-tree over the buffer pool:
// int64 keys mapping to record IDs, with leaf-chained range scans,
// recursive node splits, and lazy deletion. It is the "B+ trees" piece
// of the SHORE storage-manager feature set (§4.1) and the substrate for
// the Wisconsin indexed-selection queries.
package index

import (
	"encoding/binary"
	"errors"
	"fmt"

	"cgp/internal/db/probe"
	"cgp/internal/db/storage"
	"cgp/internal/isa"
	"cgp/internal/program"
)

// Funcs holds the instrumented-function IDs of the index layer.
type Funcs struct {
	Search    program.FuncID
	Insert    program.FuncID
	Split     program.FuncID
	BinSearch program.FuncID
	OpenScan  program.FuncID
	LeafNext  program.FuncID
	Delete    program.FuncID
}

// RegisterFuncs registers the index-layer functions.
func RegisterFuncs(reg *program.Registry) Funcs {
	return Funcs{
		Search:    reg.Register("Btree_search", 340),
		Insert:    reg.Register("Btree_insert", 420),
		Split:     reg.Register("Btree_split", 520),
		BinSearch: reg.Register("Btree_binsearch", 140),
		OpenScan:  reg.Register("Btree_open_scan", 170),
		LeafNext:  reg.Register("Btree_leaf_next", 210),
		Delete:    reg.Register("Btree_delete", 380),
	}
}

// Node layout, after the 20-byte storage page header:
//
//	20    isLeaf (1 byte), 21 pad, 22:24 nkeys
//	leaf:  entries at 24: key int64, page uint32, slot uint16, pad 2  (16 B)
//	inner: child0 uint32 at 24; entries at 28: key int64, child uint32 (12 B)
//
// Leaves use the page header's Next field as the right-sibling pointer.
const (
	nodeMetaOff  = 20
	offIsLeaf    = nodeMetaOff
	offNKeys     = nodeMetaOff + 2
	leafEntryOff = nodeMetaOff + 4
	leafEntrySz  = 16
	innerChild0  = nodeMetaOff + 4
	innerEntries = innerChild0 + 4
	innerEntrySz = 12
)

// LeafCapacity is the max entries per leaf node.
const LeafCapacity = (storage.PageSize - leafEntryOff) / leafEntrySz

// InnerCapacity is the max keys per inner node.
const InnerCapacity = (storage.PageSize - innerEntries) / innerEntrySz

// ErrNotFound is returned by Search when the key is absent.
var ErrNotFound = errors.New("index: key not found")

// Tree is one B+-tree.
type Tree struct {
	name string
	pool *storage.BufferPool
	pr   *probe.Probe
	fns  Funcs

	root   storage.PageID
	height int
	nKeys  int64
}

// Create builds an empty tree (a single empty leaf as root).
func Create(name string, pool *storage.BufferPool, pr *probe.Probe, fns Funcs) (*Tree, error) {
	frame, err := pool.NewPage()
	if err != nil {
		return nil, err
	}
	initLeaf(frame.Page())
	root := frame.Page().ID()
	pool.Unpin(frame, true)
	return &Tree{name: name, pool: pool, pr: pr, fns: fns, root: root, height: 1}, nil
}

// Name returns the index name.
func (t *Tree) Name() string { return t.name }

// Height returns the number of levels.
func (t *Tree) Height() int { return t.height }

// Len returns the number of keys.
func (t *Tree) Len() int64 { return t.nKeys }

func initLeaf(p storage.Page) {
	buf := pageBuf(p)
	buf[offIsLeaf] = 1
	binary.LittleEndian.PutUint16(buf[offNKeys:], 0)
	p.SetNext(storage.InvalidPageID)
}

func initInner(p storage.Page) {
	buf := pageBuf(p)
	buf[offIsLeaf] = 0
	binary.LittleEndian.PutUint16(buf[offNKeys:], 0)
}

// pageBuf exposes the raw page bytes; the B+-tree manages its own layout
// inside the record area.
func pageBuf(p storage.Page) []byte { return p.Raw() }

type node struct {
	page storage.Page
	buf  []byte
}

func asNode(p storage.Page) node { return node{page: p, buf: pageBuf(p)} }

func (n node) isLeaf() bool { return n.buf[offIsLeaf] == 1 }
func (n node) nKeys() int   { return int(binary.LittleEndian.Uint16(n.buf[offNKeys:])) }
func (n node) setNKeys(k int) {
	binary.LittleEndian.PutUint16(n.buf[offNKeys:], uint16(k))
}

func (n node) leafKey(i int) int64 {
	return int64(binary.LittleEndian.Uint64(n.buf[leafEntryOff+i*leafEntrySz:]))
}

func (n node) leafRID(i int) storage.RID {
	base := leafEntryOff + i*leafEntrySz + 8
	return storage.RID{
		Page: storage.PageID(binary.LittleEndian.Uint32(n.buf[base:])),
		Slot: binary.LittleEndian.Uint16(n.buf[base+4:]),
	}
}

func (n node) setLeafEntry(i int, key int64, rid storage.RID) {
	base := leafEntryOff + i*leafEntrySz
	binary.LittleEndian.PutUint64(n.buf[base:], uint64(key))
	binary.LittleEndian.PutUint32(n.buf[base+8:], uint32(rid.Page))
	binary.LittleEndian.PutUint16(n.buf[base+12:], rid.Slot)
}

func (n node) copyLeafEntry(dst int, src node, srcIdx int) {
	d := leafEntryOff + dst*leafEntrySz
	s := leafEntryOff + srcIdx*leafEntrySz
	copy(n.buf[d:d+leafEntrySz], src.buf[s:s+leafEntrySz])
}

func (n node) innerKey(i int) int64 {
	return int64(binary.LittleEndian.Uint64(n.buf[innerEntries+i*innerEntrySz:]))
}

func (n node) child(i int) storage.PageID {
	if i == 0 {
		return storage.PageID(binary.LittleEndian.Uint32(n.buf[innerChild0:]))
	}
	base := innerEntries + (i-1)*innerEntrySz + 8
	return storage.PageID(binary.LittleEndian.Uint32(n.buf[base:]))
}

func (n node) setChild0(c storage.PageID) {
	binary.LittleEndian.PutUint32(n.buf[innerChild0:], uint32(c))
}

func (n node) setInnerEntry(i int, key int64, child storage.PageID) {
	base := innerEntries + i*innerEntrySz
	binary.LittleEndian.PutUint64(n.buf[base:], uint64(key))
	binary.LittleEndian.PutUint32(n.buf[base+8:], uint32(child))
}

func (n node) copyInnerEntry(dst int, src node, srcIdx int) {
	d := innerEntries + dst*innerEntrySz
	s := innerEntries + srcIdx*innerEntrySz
	copy(n.buf[d:d+innerEntrySz], src.buf[s:s+innerEntrySz])
}

// binSearchLeaf returns the first index with key >= k.
func (t *Tree) binSearchLeaf(n node, k int64) int {
	t.pr.Enter(t.fns.BinSearch)
	defer t.pr.Exit()
	t.pr.Work(8 + 3*bitsLen(n.nKeys()))
	lo, hi := 0, n.nKeys()
	for lo < hi {
		mid := (lo + hi) / 2
		if n.leafKey(mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns which child to descend into for key k.
func (t *Tree) childIndex(n node, k int64) int {
	t.pr.Enter(t.fns.BinSearch)
	defer t.pr.Exit()
	t.pr.Work(8 + 3*bitsLen(n.nKeys()))
	lo, hi := 0, n.nKeys()
	for lo < hi {
		mid := (lo + hi) / 2
		if n.innerKey(mid) <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func bitsLen(n int) int {
	b := 1
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// touch records the data traffic of inspecting a node.
func (t *Tree) touch(p storage.Page) {
	t.pr.Data(storage.PageAddr(p.ID())+nodeMetaOff, 96, false)
}

// descendToLeaf walks from the root to the leaf that should hold k,
// returning the pinned leaf frame and the path of pinned ancestors when
// withPath is set (for splits). Callers must unpin everything returned.
func (t *Tree) descendToLeaf(k int64, withPath bool) (*storage.Frame, []*storage.Frame, error) {
	var path []*storage.Frame
	frame, err := t.pool.GetPage(t.root)
	if err != nil {
		return nil, nil, err
	}
	for {
		n := asNode(frame.Page())
		t.touch(frame.Page())
		if n.isLeaf() {
			return frame, path, nil
		}
		idx := t.childIndex(n, k)
		child := n.child(idx)
		next, err := t.pool.GetPage(child)
		if err != nil {
			t.pool.Unpin(frame, false)
			for _, f := range path {
				t.pool.Unpin(f, false)
			}
			return nil, nil, err
		}
		if withPath {
			path = append(path, frame)
		} else {
			t.pool.Unpin(frame, false)
		}
		frame = next
	}
}

// Search returns the RID of the first entry with the given key.
func (t *Tree) Search(k int64) (storage.RID, error) {
	t.pr.Enter(t.fns.Search)
	defer t.pr.Exit()
	t.pr.Work(18)
	leaf, _, err := t.descendToLeaf(k, false)
	if err != nil {
		return storage.InvalidRID, err
	}
	defer t.pool.Unpin(leaf, false)
	n := asNode(leaf.Page())
	i := t.binSearchLeaf(n, k)
	if i < n.nKeys() && n.leafKey(i) == k {
		return n.leafRID(i), nil
	}
	return storage.InvalidRID, fmt.Errorf("index %s: key %d: %w", t.name, k, ErrNotFound)
}

// Insert adds (k, rid). Duplicate keys are allowed and kept adjacent.
func (t *Tree) Insert(k int64, rid storage.RID) error {
	t.pr.Enter(t.fns.Insert)
	defer t.pr.Exit()
	t.pr.Work(22)
	leaf, path, err := t.descendToLeaf(k, true)
	if err != nil {
		return err
	}
	err = t.insertIntoLeaf(leaf, path, k, rid)
	if err == nil {
		t.nKeys++
	}
	return err
}

func (t *Tree) insertIntoLeaf(leaf *storage.Frame, path []*storage.Frame, k int64, rid storage.RID) error {
	defer func() {
		for _, f := range path {
			t.pool.Unpin(f, false)
		}
	}()
	n := asNode(leaf.Page())
	if n.nKeys() < LeafCapacity {
		t.leafInsertAt(n, t.binSearchLeaf(n, k), k, rid)
		t.pool.Unpin(leaf, true)
		return nil
	}
	// Split the leaf, then push the separator up the path.
	sepKey, rightID, err := t.splitLeaf(leaf, k, rid)
	if err != nil {
		t.pool.Unpin(leaf, true)
		return err
	}
	t.pool.Unpin(leaf, true)
	return t.insertIntoParents(path, sepKey, rightID)
}

// leafInsertAt shifts entries right and writes (k, rid) at position i.
func (t *Tree) leafInsertAt(n node, i int, k int64, rid storage.RID) {
	nk := n.nKeys()
	base := leafEntryOff
	copy(n.buf[base+(i+1)*leafEntrySz:base+(nk+1)*leafEntrySz],
		n.buf[base+i*leafEntrySz:base+nk*leafEntrySz])
	n.setLeafEntry(i, k, rid)
	n.setNKeys(nk + 1)
	t.pr.Data(storage.PageAddr(n.page.ID())+isa.Addr(base+i*leafEntrySz), leafEntrySz, true)
}

// splitLeaf splits a full leaf around its midpoint, inserting (k, rid)
// into the proper half, and returns the separator key and new right
// sibling.
func (t *Tree) splitLeaf(leaf *storage.Frame, k int64, rid storage.RID) (int64, storage.PageID, error) {
	t.pr.Enter(t.fns.Split)
	defer t.pr.Exit()
	t.pr.Work(90)
	rightFrame, err := t.pool.NewPage()
	if err != nil {
		return 0, 0, err
	}
	initLeaf(rightFrame.Page())
	left := asNode(leaf.Page())
	right := asNode(rightFrame.Page())

	mid := left.nKeys() / 2
	moved := left.nKeys() - mid
	for i := 0; i < moved; i++ {
		right.copyLeafEntry(i, left, mid+i)
	}
	right.setNKeys(moved)
	left.setNKeys(mid)
	right.page.SetNext(left.page.Next())
	left.page.SetNext(right.page.ID())

	sep := right.leafKey(0)
	if k < sep {
		t.leafInsertAt(left, t.binSearchLeaf(left, k), k, rid)
	} else {
		t.leafInsertAt(right, t.binSearchLeaf(right, k), k, rid)
	}
	t.pr.Data(storage.PageAddr(right.page.ID()), 256, true)
	rightID := right.page.ID()
	t.pool.Unpin(rightFrame, true)
	return sep, rightID, nil
}

// insertIntoParents pushes a separator up the pinned path, splitting
// inner nodes as needed and growing a new root when the path empties.
func (t *Tree) insertIntoParents(path []*storage.Frame, sepKey int64, rightID storage.PageID) error {
	for level := len(path) - 1; level >= 0; level-- {
		parent := path[level]
		n := asNode(parent.Page())
		if n.nKeys() < InnerCapacity {
			t.innerInsert(n, sepKey, rightID)
			// Mark dirty via a pin-neutral unpin/pin pair is overkill;
			// the frame is unpinned dirty by the deferred cleanup in
			// insertIntoLeaf, so flag it here.
			t.pool.MarkDirty(parent)
			return nil
		}
		var err error
		sepKey, rightID, err = t.splitInner(parent, sepKey, rightID)
		if err != nil {
			return err
		}
		t.pool.MarkDirty(parent)
	}
	// The root itself split: grow the tree.
	newRootFrame, err := t.pool.NewPage()
	if err != nil {
		return err
	}
	nr := asNode(newRootFrame.Page())
	initInner(newRootFrame.Page())
	nr.setChild0(t.root)
	nr.setInnerEntry(0, sepKey, rightID)
	nr.setNKeys(1)
	t.root = newRootFrame.Page().ID()
	t.height++
	t.pool.Unpin(newRootFrame, true)
	return nil
}

// innerInsert adds (sepKey, child) into an inner node with room.
func (t *Tree) innerInsert(n node, sepKey int64, child storage.PageID) {
	i := t.childIndex(n, sepKey)
	nk := n.nKeys()
	base := innerEntries
	copy(n.buf[base+(i+1)*innerEntrySz:base+(nk+1)*innerEntrySz],
		n.buf[base+i*innerEntrySz:base+nk*innerEntrySz])
	n.setInnerEntry(i, sepKey, child)
	n.setNKeys(nk + 1)
	t.pr.Data(storage.PageAddr(n.page.ID())+isa.Addr(base+i*innerEntrySz), innerEntrySz, true)
}

// splitInner splits a full inner node, returning the promoted key and
// the new right node.
func (t *Tree) splitInner(frame *storage.Frame, sepKey int64, child storage.PageID) (int64, storage.PageID, error) {
	t.pr.Enter(t.fns.Split)
	defer t.pr.Exit()
	t.pr.Work(110)
	rightFrame, err := t.pool.NewPage()
	if err != nil {
		return 0, 0, err
	}
	initInner(rightFrame.Page())
	left := asNode(frame.Page())
	right := asNode(rightFrame.Page())

	nk := left.nKeys()
	mid := nk / 2
	promoted := left.innerKey(mid)
	// Entries after mid move right; child(mid+1) becomes right's child0.
	right.setChild0(left.child(mid + 1))
	moved := 0
	for i := mid + 1; i < nk; i++ {
		right.copyInnerEntry(moved, left, i)
		moved++
	}
	right.setNKeys(moved)
	left.setNKeys(mid)

	if sepKey < promoted {
		t.innerInsert(left, sepKey, child)
	} else {
		t.innerInsert(right, sepKey, child)
	}
	t.pr.Data(storage.PageAddr(right.page.ID()), 256, true)
	rightID := right.page.ID()
	t.pool.Unpin(rightFrame, true)
	return promoted, rightID, nil
}

// Delete removes the first entry with key k (lazy: leaves may underflow
// but are never merged, as in many production trees).
func (t *Tree) Delete(k int64) error {
	t.pr.Enter(t.fns.Delete)
	defer t.pr.Exit()
	t.pr.Work(24)
	leaf, _, err := t.descendToLeaf(k, false)
	if err != nil {
		return err
	}
	n := asNode(leaf.Page())
	i := t.binSearchLeaf(n, k)
	if i >= n.nKeys() || n.leafKey(i) != k {
		t.pool.Unpin(leaf, false)
		return fmt.Errorf("index %s: delete key %d: %w", t.name, k, ErrNotFound)
	}
	nk := n.nKeys()
	base := leafEntryOff
	copy(n.buf[base+i*leafEntrySz:base+(nk-1)*leafEntrySz],
		n.buf[base+(i+1)*leafEntrySz:base+nk*leafEntrySz])
	n.setNKeys(nk - 1)
	t.pool.Unpin(leaf, true)
	t.nKeys--
	return nil
}

// Cursor iterates leaf entries in key order.
type Cursor struct {
	tree  *Tree
	frame *storage.Frame
	idx   int
	hi    int64
	hasHi bool
}

// OpenScan positions a cursor at the first entry with key >= lo. If
// hasHi, iteration stops after keys > hi.
func (t *Tree) OpenScan(lo int64, hi int64, hasHi bool) (*Cursor, error) {
	c := new(Cursor)
	if err := t.Seek(c, lo, hi, hasHi); err != nil {
		return nil, err
	}
	return c, nil
}

// Seek positions c as OpenScan positions a new cursor, so a caller that
// scans many ranges one after another can reuse one cursor. c must
// hold no pin: a zero Cursor, or one that is closed or ran off its
// range.
func (t *Tree) Seek(c *Cursor, lo int64, hi int64, hasHi bool) error {
	t.pr.Enter(t.fns.OpenScan)
	defer t.pr.Exit()
	t.pr.Work(20)
	leaf, _, err := t.descendToLeaf(lo, false)
	if err != nil {
		return err
	}
	n := asNode(leaf.Page())
	idx := t.binSearchLeaf(n, lo)
	*c = Cursor{tree: t, frame: leaf, idx: idx, hi: hi, hasHi: hasHi}
	return nil
}

// Next yields the next (key, rid), or ok=false at the end of the range.
func (c *Cursor) Next() (int64, storage.RID, bool, error) {
	t := c.tree
	t.pr.Enter(t.fns.LeafNext)
	defer t.pr.Exit()
	t.pr.Work(12)
	for {
		if c.frame == nil {
			return 0, storage.InvalidRID, false, nil
		}
		n := asNode(c.frame.Page())
		if c.idx < n.nKeys() {
			k := n.leafKey(c.idx)
			if c.hasHi && k > c.hi {
				c.Close()
				return 0, storage.InvalidRID, false, nil
			}
			rid := n.leafRID(c.idx)
			t.pr.Data(storage.PageAddr(n.page.ID())+isa.Addr(leafEntryOff+c.idx*leafEntrySz), leafEntrySz, false)
			c.idx++
			return k, rid, true, nil
		}
		next := n.page.Next()
		t.pool.Unpin(c.frame, false)
		c.frame = nil
		if next == storage.InvalidPageID {
			return 0, storage.InvalidRID, false, nil
		}
		frame, err := t.pool.GetPage(next)
		if err != nil {
			return 0, storage.InvalidRID, false, err
		}
		c.frame = frame
		c.idx = 0
	}
}

// Close releases the cursor's pin.
func (c *Cursor) Close() {
	if c.frame != nil {
		c.tree.pool.Unpin(c.frame, false)
		c.frame = nil
	}
}
