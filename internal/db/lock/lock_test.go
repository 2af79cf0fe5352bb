package lock

import (
	"fmt"
	"math/rand"
	"testing"
)

func newMgr() *Manager { return NewManager(nil, Funcs{}) }

func TestSharedCompatible(t *testing.T) {
	m := newMgr()
	if err := m.LockPage(1, 10, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.LockPage(2, 10, Shared); err != nil {
		t.Fatalf("second shared lock: %v", err)
	}
}

func TestExclusiveConflicts(t *testing.T) {
	m := newMgr()
	if err := m.LockPage(1, 10, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.LockPage(2, 10, Shared); err == nil {
		t.Error("S granted over X")
	}
	if err := m.LockPage(2, 10, Exclusive); err == nil {
		t.Error("X granted over X")
	}
	if m.Stats().Conflicts != 2 {
		t.Errorf("conflicts = %d", m.Stats().Conflicts)
	}
}

func TestSharedBlocksExclusive(t *testing.T) {
	m := newMgr()
	m.LockPage(1, 10, Shared)
	m.LockPage(2, 10, Shared)
	if err := m.LockPage(3, 10, Exclusive); err == nil {
		t.Error("X granted over two S holders")
	}
}

func TestReentrant(t *testing.T) {
	m := newMgr()
	for i := 0; i < 3; i++ {
		if err := m.LockPage(1, 10, Shared); err != nil {
			t.Fatal(err)
		}
	}
	m.UnlockPage(1, 10)
	m.UnlockPage(1, 10)
	// Still held once.
	if err := m.LockPage(2, 10, Exclusive); err == nil {
		t.Error("X granted while S still held")
	}
	m.UnlockPage(1, 10)
	if err := m.LockPage(2, 10, Exclusive); err != nil {
		t.Errorf("X after full release: %v", err)
	}
}

func TestUpgrade(t *testing.T) {
	m := newMgr()
	m.LockPage(1, 10, Shared)
	if err := m.LockPage(1, 10, Exclusive); err != nil {
		t.Fatalf("sole-holder upgrade failed: %v", err)
	}
	if err := m.LockPage(2, 10, Shared); err == nil {
		t.Error("S granted after upgrade to X")
	}
	if m.Stats().Upgrades != 1 {
		t.Errorf("upgrades = %d", m.Stats().Upgrades)
	}
}

func TestUpgradeConflict(t *testing.T) {
	m := newMgr()
	m.LockPage(1, 10, Shared)
	m.LockPage(2, 10, Shared)
	if err := m.LockPage(1, 10, Exclusive); err == nil {
		t.Error("upgrade granted with other holders")
	}
}

func TestRecordAndPageDistinct(t *testing.T) {
	m := newMgr()
	if err := m.LockPage(1, 10, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.LockRecord(2, 10, 0, Exclusive); err != nil {
		t.Errorf("record lock conflated with page lock: %v", err)
	}
}

func TestReleaseAll(t *testing.T) {
	m := newMgr()
	m.LockPage(1, 10, Exclusive)
	m.LockPage(1, 11, Shared)
	m.LockRecord(1, 10, 3, Exclusive)
	if m.HeldBy(1) != 3 {
		t.Fatalf("held = %d", m.HeldBy(1))
	}
	m.ReleaseAll(1)
	if m.HeldBy(1) != 0 || m.Outstanding() != 0 {
		t.Errorf("held=%d outstanding=%d after ReleaseAll", m.HeldBy(1), m.Outstanding())
	}
	if err := m.LockPage(2, 10, Exclusive); err != nil {
		t.Errorf("lock after ReleaseAll: %v", err)
	}
}

func TestReleaseUnheldIsNoop(t *testing.T) {
	m := newMgr()
	m.UnlockPage(1, 99) // must not panic
	if m.Stats().Releases != 0 {
		t.Errorf("releases = %d", m.Stats().Releases)
	}
}

func TestModeString(t *testing.T) {
	if Shared.String() != "S" || Exclusive.String() != "X" {
		t.Error("mode strings wrong")
	}
}

func TestResourceEncodings(t *testing.T) {
	if PageResource(10) == RecordResource(10, 0) {
		t.Error("page and record resources collide")
	}
	if RecordResource(10, 1) == RecordResource(10, 2) {
		t.Error("record resources collide across slots")
	}
	if PageResource(1) == PageResource(2) {
		t.Error("page resources collide")
	}
}

// refLock is one resource in refModel.
type refLock struct {
	mode    Mode
	holders map[Owner]int
}

// refModel is the reference lock table the Manager is checked against:
// the semantics written as plainly as possible, one map per lock.
type refModel struct {
	locks map[Resource]*refLock
	stats Stats
}

func (m *refModel) acquire(o Owner, r Resource, mode Mode) error {
	l := m.locks[r]
	switch {
	case l == nil:
		m.locks[r] = &refLock{mode: mode, holders: map[Owner]int{o: 1}}
	case l.holders[o] > 0:
		if mode == Exclusive && l.mode == Shared {
			if len(l.holders) > 1 {
				m.stats.Conflicts++
				return fmt.Errorf("lock: upgrade conflict on %#x", uint64(r))
			}
			l.mode = Exclusive
			m.stats.Upgrades++
		}
		l.holders[o]++
	case l.mode == Exclusive || mode == Exclusive:
		m.stats.Conflicts++
		return fmt.Errorf("lock: %s conflict on %#x", mode, uint64(r))
	default:
		l.holders[o] = 1
	}
	m.stats.Acquires++
	return nil
}

func (m *refModel) release(o Owner, r Resource) {
	l := m.locks[r]
	if l == nil || l.holders[o] == 0 {
		return
	}
	m.stats.Releases++
	if l.holders[o]--; l.holders[o] == 0 {
		delete(l.holders, o)
	}
	if len(l.holders) == 0 {
		delete(m.locks, r)
	}
}

func (m *refModel) releaseAll(o Owner) {
	for r, l := range m.locks {
		if l.holders[o] == 0 {
			continue
		}
		m.stats.Releases++
		delete(l.holders, o)
		if len(l.holders) == 0 {
			delete(m.locks, r)
		}
	}
}

func (m *refModel) heldBy(o Owner) int {
	n := 0
	for _, l := range m.locks {
		if l.holders[o] > 0 {
			n++
		}
	}
	return n
}

// TestManagerMatchesReferenceModel drives the Manager and the model
// with the same seeded operation sequence over three owners and a small
// resource space, so reentrant acquires, sole-holder upgrades, upgrade
// and mode conflicts, second shared holders and ReleaseAll all occur,
// and requires identical errors, Stats, HeldBy and Outstanding after
// every step.
func TestManagerMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newMgr()
		ref := &refModel{locks: map[Resource]*refLock{}}
		for step := 0; step < 4000; step++ {
			o := Owner(1 + rng.Intn(3))
			page := uint32(rng.Intn(3))
			slot := uint16(rng.Intn(2))
			mode := Mode(rng.Intn(2))
			var got, want error
			var op string
			switch k := rng.Intn(20); {
			case k < 5:
				op = fmt.Sprintf("LockPage(%d, %d, %s)", o, page, mode)
				got = m.LockPage(o, page, mode)
				want = ref.acquire(o, PageResource(page), mode)
			case k < 10:
				op = fmt.Sprintf("LockRecord(%d, %d, %d, %s)", o, page, slot, mode)
				got = m.LockRecord(o, page, slot, mode)
				want = ref.acquire(o, RecordResource(page, slot), mode)
			case k < 14:
				op = fmt.Sprintf("UnlockPage(%d, %d)", o, page)
				m.UnlockPage(o, page)
				ref.release(o, PageResource(page))
			case k < 19:
				op = fmt.Sprintf("UnlockRecord(%d, %d, %d)", o, page, slot)
				m.UnlockRecord(o, page, slot)
				ref.release(o, RecordResource(page, slot))
			default:
				op = fmt.Sprintf("ReleaseAll(%d)", o)
				m.ReleaseAll(o)
				ref.releaseAll(o)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d step %d %s: error %v, model %v", seed, step, op, got, want)
			}
			if m.Stats() != ref.stats {
				t.Fatalf("seed %d step %d %s: stats %+v, model %+v", seed, step, op, m.Stats(), ref.stats)
			}
			if m.Outstanding() != len(ref.locks) {
				t.Fatalf("seed %d step %d %s: outstanding %d, model %d", seed, step, op, m.Outstanding(), len(ref.locks))
			}
			for o := Owner(1); o <= 3; o++ {
				if m.HeldBy(o) != ref.heldBy(o) {
					t.Fatalf("seed %d step %d %s: HeldBy(%d) = %d, model %d", seed, step, op, o, m.HeldBy(o), ref.heldBy(o))
				}
			}
		}
		if s := ref.stats; s.Upgrades == 0 || s.Conflicts == 0 || s.Releases == 0 {
			t.Fatalf("seed %d exercised too little: %+v", seed, s)
		}
	}
}

func TestLockRecordPairAllocatesNothing(t *testing.T) {
	m := newMgr()
	pair := func() {
		if err := m.LockRecord(1, 7, 3, Shared); err != nil {
			t.Fatal(err)
		}
		m.UnlockRecord(1, 7, 3)
	}
	pair() // the first pair allocates the lock state
	if n := testing.AllocsPerRun(100, pair); n != 0 {
		t.Errorf("a warmed LockRecord/UnlockRecord pair allocates %.1f times", n)
	}
}
