// Package lock is the concurrency-control substrate: a table of shared/
// exclusive locks keyed by abstract resource IDs (pages, records), with
// reentrant holders and two-phase release. Queries in the simulated
// workloads run cooperatively, so a conflict is an error rather than a
// wait — the instrumented code path (the paper's Lock_page/Unlock_page,
// lock_record) is what matters for the I-cache study.
package lock

import (
	"fmt"

	"cgp/internal/db/probe"
	"cgp/internal/program"
)

// Mode is a lock mode.
type Mode uint8

const (
	// Shared permits concurrent readers.
	Shared Mode = iota
	// Exclusive permits one writer.
	Exclusive
)

// String returns "S" or "X".
func (m Mode) String() string {
	if m == Exclusive {
		return "X"
	}
	return "S"
}

// Resource identifies a lockable object.
type Resource uint64

// PageResource builds a resource ID for a page.
func PageResource(pageID uint32) Resource {
	return Resource(uint64(pageID) | 1<<40)
}

// RecordResource builds a resource ID for a record.
func RecordResource(pageID uint32, slot uint16) Resource {
	return Resource(uint64(pageID)<<16 | uint64(slot) | 1<<41)
}

// Owner identifies a lock holder (a transaction).
type Owner uint64

// Funcs holds the instrumented-function IDs of the lock manager.
type Funcs struct {
	LockPage     program.FuncID
	UnlockPage   program.FuncID
	LockRecord   program.FuncID
	UnlockRecord program.FuncID
	LockAcquire  program.FuncID
	LockRelease  program.FuncID
}

// RegisterFuncs registers the lock-manager functions.
func RegisterFuncs(reg *program.Registry) Funcs {
	return Funcs{
		LockPage:     reg.Register("Lock_page", 150),
		UnlockPage:   reg.Register("Unlock_page", 120),
		LockRecord:   reg.Register("Lock_record", 170),
		UnlockRecord: reg.Register("Unlock_record", 130),
		LockAcquire:  reg.Register("Lock_acquire", 260),
		LockRelease:  reg.Register("Lock_release", 200),
	}
}

// lockState is one locked resource. Its first holder sits inline
// (owner and count); further shared holders go in more, which is made
// when a second holder arrives. A state whose last holder leaves
// returns, with more (then empty) kept, to the Manager's free list.
type lockState struct {
	mode  Mode
	owner Owner         // the inline holder, when count > 0
	count int           // the inline holder's acquisition count (reentrant)
	more  map[Owner]int // further holder -> acquisition count
	next  *lockState    // free-list link
}

// countOf returns how many times o holds the lock.
func (st *lockState) countOf(o Owner) int {
	if st.count > 0 && st.owner == o {
		return st.count
	}
	return st.more[o]
}

// set records n acquisitions by o; n == 0 drops o as a holder. o takes
// the inline slot when it is there already, or when the slot is free
// and o is not in more.
func (st *lockState) set(o Owner, n int) {
	if st.count > 0 && st.owner == o || st.count == 0 && st.more[o] == 0 {
		st.owner, st.count = o, n
		return
	}
	if n == 0 {
		delete(st.more, o)
		return
	}
	if st.more == nil {
		st.more = make(map[Owner]int)
	}
	st.more[o] = n
}

// holders returns the number of distinct holders.
func (st *lockState) holders() int {
	if st.count > 0 {
		return 1 + len(st.more)
	}
	return len(st.more)
}

// Stats counts lock-manager activity.
type Stats struct {
	Acquires  int64
	Releases  int64
	Upgrades  int64
	Conflicts int64
}

// Manager is the lock table. It keeps no per-owner index: every engine
// lock is released before the call that took it returns, so the table
// stays a handful of entries, and ReleaseAll and HeldBy walk it.
type Manager struct {
	table map[Resource]*lockState
	free  *lockState // released states, at most the peak number held at once
	pr    *probe.Probe
	fns   Funcs
	stats Stats
}

// NewManager builds an empty lock table.
func NewManager(pr *probe.Probe, fns Funcs) *Manager {
	return &Manager{
		table: make(map[Resource]*lockState),
		pr:    pr,
		fns:   fns,
	}
}

// Stats returns a copy of the counters.
func (m *Manager) Stats() Stats { return m.stats }

// LockPage acquires a page lock (the paper's Lock_page).
func (m *Manager) LockPage(o Owner, pageID uint32, mode Mode) error {
	m.pr.Enter(m.fns.LockPage)
	defer m.pr.Exit()
	m.pr.Work(10)
	return m.acquire(o, PageResource(pageID), mode)
}

// UnlockPage releases a page lock (the paper's Unlock_page).
func (m *Manager) UnlockPage(o Owner, pageID uint32) {
	m.pr.Enter(m.fns.UnlockPage)
	defer m.pr.Exit()
	m.pr.Work(8)
	m.release(o, PageResource(pageID))
}

// LockRecord acquires a record lock (the paper's lock_record example of
// a function called from many places, §5.2).
func (m *Manager) LockRecord(o Owner, pageID uint32, slot uint16, mode Mode) error {
	m.pr.Enter(m.fns.LockRecord)
	m.pr.Work(12)
	err := m.acquire(o, RecordResource(pageID, slot), mode)
	m.pr.Exit()
	return err
}

// UnlockRecord releases a record lock.
func (m *Manager) UnlockRecord(o Owner, pageID uint32, slot uint16) {
	m.pr.Enter(m.fns.UnlockRecord)
	m.pr.Work(8)
	m.release(o, RecordResource(pageID, slot))
	m.pr.Exit()
}

// acquire takes r in the given mode for o, upgrading S->X when o is the
// sole holder.
func (m *Manager) acquire(o Owner, r Resource, mode Mode) error {
	m.pr.Enter(m.fns.LockAcquire)
	m.pr.Work(24)
	err := m.grant(o, r, mode)
	m.pr.Exit()
	return err
}

// grant is acquire's body, between its probe calls.
func (m *Manager) grant(o Owner, r Resource, mode Mode) error {
	st := m.table[r]
	if st == nil {
		st = m.newState()
		st.mode, st.owner, st.count = mode, o, 1
		m.table[r] = st
		m.stats.Acquires++
		return nil
	}
	if n := st.countOf(o); n > 0 {
		// Reentrant; upgrade if needed and possible.
		if mode == Exclusive && st.mode == Shared {
			if st.holders() > 1 {
				m.stats.Conflicts++
				return fmt.Errorf("lock: upgrade conflict on %#x", uint64(r))
			}
			st.mode = Exclusive
			m.stats.Upgrades++
		}
		st.set(o, n+1)
		m.stats.Acquires++
		return nil
	}
	if st.mode == Exclusive || mode == Exclusive {
		m.stats.Conflicts++
		return fmt.Errorf("lock: %s conflict on %#x", mode, uint64(r))
	}
	st.set(o, 1)
	m.stats.Acquires++
	return nil
}

// release drops one acquisition of r by o.
func (m *Manager) release(o Owner, r Resource) {
	m.pr.Enter(m.fns.LockRelease)
	m.pr.Work(18)
	if st := m.table[r]; st != nil { // releasing an unheld lock is a no-op, as in SHORE
		if n := st.countOf(o); n > 0 {
			m.stats.Releases++
			st.set(o, n-1)
			if st.holders() == 0 {
				m.freeState(r, st)
			}
		}
	}
	m.pr.Exit()
}

// newState takes a state off the free list, or allocates one.
func (m *Manager) newState() *lockState {
	st := m.free
	if st == nil {
		return &lockState{}
	}
	m.free = st.next
	st.next = nil
	return st
}

// freeState removes r's holderless state from the table and keeps it
// for reuse.
func (m *Manager) freeState(r Resource, st *lockState) {
	delete(m.table, r)
	st.next = m.free
	m.free = st
}

// ReleaseAll drops every lock held by o (end of transaction: the release
// phase of two-phase locking).
func (m *Manager) ReleaseAll(o Owner) {
	for r, st := range m.table {
		if st.countOf(o) == 0 {
			continue
		}
		m.stats.Releases++
		st.set(o, 0)
		if st.holders() == 0 {
			m.freeState(r, st)
		}
	}
}

// HeldBy returns how many resources o currently holds.
func (m *Manager) HeldBy(o Owner) int {
	n := 0
	for _, st := range m.table {
		if st.countOf(o) > 0 {
			n++
		}
	}
	return n
}

// Outstanding returns the number of locked resources.
func (m *Manager) Outstanding() int { return len(m.table) }
