// Package core implements the paper's contribution: Call Graph
// Prefetching (CGP) and the Call Graph History Cache (CGHC) that backs
// it (§3).
//
// The CGHC is a direct-mapped cache indexed by function starting
// address (a set-associative variant is provided for the ablation
// study). Each entry stores an index (1..MaxCallees) and the sequence
// of functions the tagged function called the last time it executed.
// Every call and every return makes two CGHC accesses: a prefetch
// access keyed by the predicted target, and an update access keyed by
// the currently executing function (§3.2).
package core

import (
	"fmt"

	"cgp/internal/isa"
)

// MaxCallees is the number of callee slots per finite CGHC entry. The
// paper found 80% of functions call fewer than 8 distinct functions, so
// each data-array entry stores up to 8 starting addresses (one 32-byte
// line of 4-byte addresses).
const MaxCallees = 8

// Entry is one CGHC record: the call sequence observed during the
// tagged function's most recent (possibly still in-progress) execution.
type Entry struct {
	// Fn is the starting address of the function this entry describes
	// (the tag).
	Fn isa.Addr
	// Index is 1-based: it selects the slot the *next* call update will
	// write, and the slot a return-prefetch access reads. It is reset to
	// 1 when the function returns. Index 0 marks an empty way.
	Index int
	// Callees[i] is the (i+1)'th function called during the most recent
	// execution. A zero address marks an empty slot.
	Callees [MaxCallees]isa.Addr
	// Valid marks the data-array entry as holding real history. A newly
	// allocated entry has Valid=false until its first call update.
	Valid bool
}

// live reports whether the way holds a valid tag.
func (e *Entry) live() bool { return e.Index > 0 }

// HistoryStats counts CGHC traffic. Like every simulator counter it is
// deterministic-domain data: derived only from the replayed event
// stream, identical across re-runs, and safe to surface in report
// bodies and the metrics exposition.
//
// It keeps no count that follows from the others: a swap happens on
// every level-two hit, a lookup that misses claims one way (so
// allocations are PrefetchMisses + UpdateMisses), and on a two-level
// CGHC every level-two miss is such a miss.
type HistoryStats struct {
	PrefetchHits   int64
	PrefetchMisses int64
	UpdateHits     int64
	UpdateMisses   int64
	LevelTwoHits   int64
}

// PrefetchHitRate returns the fraction of prefetch-access lookups that
// found their tag (at any level).
func (h HistoryStats) PrefetchHitRate() float64 {
	total := h.PrefetchHits + h.PrefetchMisses
	if total == 0 {
		return 0
	}
	return float64(h.PrefetchHits) / float64(total)
}

// UpdateHitRate returns the fraction of update-access lookups that
// found their tag.
func (h HistoryStats) UpdateHitRate() float64 {
	total := h.UpdateHits + h.UpdateMisses
	if total == 0 {
		return 0
	}
	return float64(h.UpdateHits) / float64(total)
}

// level is one CGHC array: sets x ways entries with LRU replacement
// within a set. ways=1 (the paper's choice) degenerates to a
// direct-mapped array with no replacement state.
type level struct {
	entries []Entry
	stamps  []uint64
	ways    int
	mask    uint64
	tick    uint64
}

func newLevel(sizeBytes, ways int) *level {
	if ways <= 0 {
		ways = 1
	}
	n := sizeBytes / isa.LineBytes
	if n <= 0 || n%ways != 0 {
		panic(fmt.Sprintf("core: CGHC size %dB incompatible with %d ways", sizeBytes, ways))
	}
	sets := n / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("core: CGHC size %dB yields non-power-of-two set count %d", sizeBytes, sets))
	}
	return &level{
		entries: make([]Entry, n),
		stamps:  make([]uint64, n),
		ways:    ways,
		mask:    uint64(sets - 1),
	}
}

func (l *level) setBase(fn isa.Addr) int {
	// Function starts are line-aligned, so index above the line offset.
	return int((uint64(fn)>>isa.LineShift)&l.mask) * l.ways
}

// find returns the live entry tagged fn, refreshing its LRU stamp.
func (l *level) find(fn isa.Addr) *Entry {
	base := l.setBase(fn)
	for w := 0; w < l.ways; w++ {
		e := &l.entries[base+w]
		if e.live() && e.Fn == fn {
			l.tick++
			l.stamps[base+w] = l.tick
			return e
		}
	}
	return nil
}

// victim returns the way fn's set would replace (an empty way, else the
// LRU way) and refreshes its stamp; the caller overwrites it.
func (l *level) victim(fn isa.Addr) *Entry {
	base := l.setBase(fn)
	vi := base
	for w := 0; w < l.ways; w++ {
		i := base + w
		if !l.entries[i].live() {
			vi = i
			break
		}
		if l.stamps[i] < l.stamps[vi] {
			vi = i
		}
	}
	l.tick++
	l.stamps[vi] = l.tick
	return &l.entries[vi]
}

// install writes e into its set (replacing the victim).
func (l *level) install(e Entry) {
	*l.victim(e.Fn) = e
}

// cghc is the finite CGHC: a first level, plus, when Config.L2Bytes is
// set, the larger second level of §5.3 it swaps with. On a first-level
// miss that hits in the second level the two entries are exchanged; on
// a full miss the new entry is allocated in the first level and the
// displaced first-level entry is written back to the second.
type cghc struct {
	l1, l2 *level // l2 is nil for a one-level CGHC
	stats  HistoryStats
}

// newCGHC builds the finite CGHC cfg's L1Bytes, L2Bytes and Ways select.
func newCGHC(cfg Config) *cghc {
	h := &cghc{l1: newLevel(cfg.L1Bytes, cfg.Ways)}
	if cfg.L2Bytes > 0 {
		h.l2 = newLevel(cfg.L2Bytes, cfg.Ways)
	}
	return h
}

// lookup returns the entry tagged fn, moving it to the first level or
// allocating it there on a miss ("allocating" means claiming a way,
// never heap allocation). hit reports whether the tag was present at
// either level.
func (h *cghc) lookup(fn isa.Addr) (*Entry, bool) {
	if e := h.l1.find(fn); e != nil {
		return e, true
	}
	next, hit := Entry{Fn: fn, Index: 1}, false
	if h.l2 != nil {
		if e2 := h.l2.find(fn); e2 != nil {
			next, hit = *e2, true
			e2.Index = 0
			h.stats.LevelTwoHits++
		}
	}
	v := h.l1.victim(fn)
	if h.l2 != nil && v.live() {
		// Into the way the hit entry vacated when the sets coincide,
		// else into the displaced entry's own set.
		h.l2.install(*v)
	}
	*v = next
	return v, hit
}

// Infinite is the unbounded CGHC of Figure 5: every function has an
// entry, and the entry records the entire call sequence of the most
// recent invocation (not just the first 8 calls).
type Infinite struct {
	entries map[isa.Addr]*InfEntry
	stats   HistoryStats
}

// InfEntry is the unbounded analogue of Entry.
type InfEntry struct {
	Fn      isa.Addr
	Index   int
	Callees []isa.Addr
}

// NewInfinite builds an infinite CGHC.
func NewInfinite() *Infinite {
	return &Infinite{entries: make(map[isa.Addr]*InfEntry)}
}

// lookup finds or allocates the unbounded entry for fn.
func (h *Infinite) lookup(fn isa.Addr) (*InfEntry, bool) {
	if e, ok := h.entries[fn]; ok {
		return e, true
	}
	e := &InfEntry{Fn: fn, Index: 1}
	h.entries[fn] = e
	return e, false
}

// The four methods below are the unbounded CGHC's halves of CGP's
// call/return accesses (see the matching finite paths in cgp.go). They
// are deliberately coldpath: the infinite model exists to measure the
// limit of call-graph history (Figure 5), not to be
// hardware-implementable, and it allocates per newly seen function and
// per callee-sequence growth by design.

// callPrefetch is the call-instruction prefetch access: a tag hit
// predicts the entry's first callee.
//
//cgplint:coldpath the unbounded CGHC is an idealized limit study that allocates per newly seen function by design
func (h *Infinite) callPrefetch(target isa.Addr) (isa.Addr, bool) {
	e, hit := h.lookup(target)
	countPrefetch(hit, &h.stats)
	if hit && len(e.Callees) > 0 && e.Callees[0] != 0 {
		return e.Callees[0], true
	}
	return 0, false
}

// callUpdate is the call-instruction update access: record target at
// the caller's index, growing the unbounded sequence as needed.
//
//cgplint:coldpath the unbounded CGHC is an idealized limit study that grows its callee sequences by design
func (h *Infinite) callUpdate(caller, target isa.Addr) {
	e, hit := h.lookup(caller)
	countUpdate(hit, &h.stats)
	idx := e.Index // 1-based write position; unbounded history
	for len(e.Callees) < idx {
		e.Callees = append(e.Callees, 0)
	}
	e.Callees[idx-1] = target
	e.Index = idx + 1
}

// returnPrefetch is the return-instruction prefetch access: the
// caller's index selects the next function it is predicted to call.
//
//cgplint:coldpath the unbounded CGHC is an idealized limit study that allocates per newly seen function by design
func (h *Infinite) returnPrefetch(callerStart isa.Addr) (isa.Addr, bool) {
	e, hit := h.lookup(callerStart)
	countPrefetch(hit, &h.stats)
	if hit && e.Index >= 1 && e.Index <= len(e.Callees) && e.Callees[e.Index-1] != 0 {
		return e.Callees[e.Index-1], true
	}
	return 0, false
}

// returnUpdate is the return-instruction update access: the returning
// function's index resets to 1.
//
//cgplint:coldpath the unbounded CGHC is an idealized limit study that allocates per newly seen function by design
func (h *Infinite) returnUpdate(returning isa.Addr) {
	e, hit := h.lookup(returning)
	countUpdate(hit, &h.stats)
	e.Index = 1
}

// countPrefetch books one prefetch-access lookup outcome.
func countPrefetch(hit bool, s *HistoryStats) {
	if hit {
		s.PrefetchHits++
	} else {
		s.PrefetchMisses++
	}
}

// countUpdate books one update-access lookup outcome.
func countUpdate(hit bool, s *HistoryStats) {
	if hit {
		s.UpdateHits++
	} else {
		s.UpdateMisses++
	}
}
