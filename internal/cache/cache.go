// Package cache implements the set-associative cache model used for the
// L1 instruction cache, L1 data cache and unified L2 of the simulated
// memory hierarchy (Table 1 of the paper).
//
// The cache is generic over a per-line payload so the CPU model can hang
// prefetch bookkeeping (who prefetched a line, whether it was ever used)
// off L1I lines without the cache knowing about prefetchers.
//
// Layout: the model is a struct-of-arrays — one flat tag array and one
// flat payload array, indexed set*assoc+way — so the way-scan on the
// simulator's hottest path (Access) only touches the densely packed tag
// words and never drags payload bytes through the data cache of the
// machine running the simulation. Validity is encoded in the tag itself
// (see invalidTag), and true-LRU state is a packed per-set order word
// instead of per-way timestamps. Access is additionally specialized for
// the 2- and 4-way geometries of Table 1. The reference model this was
// optimized from survives as internal/refsim; the differential tests in
// this package and in refsim's users prove the two agree counter for
// counter on arbitrary access streams.
package cache

import (
	"fmt"
	"math/bits"
)

// Line is a cache-line index (byte address >> line shift). The all-ones
// value is reserved as the invalid-way sentinel; it cannot occur for a
// real line because line indices are byte addresses shifted right, so
// they never fill all 64 bits.
type Line uint64

// invalidTag marks an empty way in the tag array.
const invalidTag = ^Line(0)

// Stats counts accesses and misses.
type Stats struct {
	Accesses  int64
	Misses    int64
	Evictions int64
	Inserts   int64
}

// orderedAssocMax is the widest associativity the packed LRU order word
// supports: 16 ways of 4 bits each in a uint64. Wider (and
// fully-associative) geometries fall back to per-way timestamps.
const orderedAssocMax = 16

// Cache is a set-associative cache with true-LRU replacement and a
// per-line payload of type P.
type Cache[P any] struct {
	name  string
	assoc int
	// setMask extracts the set index from a line.
	setMask Line
	// tags holds the line index per way (set*assoc+way), or invalidTag.
	tags []Line
	// payloads is the parallel payload array.
	payloads []P
	// order is one packed LRU word per set when assoc <=
	// orderedAssocMax: the way index at rank r (r=0 is MRU, assoc-1 is
	// LRU) lives in bits [4r, 4r+4). A set's word is always a
	// permutation of its way indices.
	order []uint64
	// last and tick are the wide-geometry fallback: per-way timestamps
	// of the most recent touch, as the pre-optimization model kept for
	// every geometry.
	last []uint64
	tick uint64

	stats Stats
}

// Config sizes a cache.
type Config struct {
	Name      string
	SizeBytes int
	Assoc     int
	LineBytes int
}

// Lines returns the line capacity of the configuration.
func (c Config) Lines() int { return c.SizeBytes / c.LineBytes }

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Lines() / c.Assoc }

// New builds a cache from cfg. It panics if the geometry is not a power
// of two or the associativity does not divide the line count, since a
// mis-sized cache model silently corrupts every downstream experiment.
func New[P any](cfg Config) *Cache[P] {
	lines := cfg.Lines()
	if lines <= 0 || cfg.Assoc <= 0 || lines%cfg.Assoc != 0 {
		panic(fmt.Sprintf("cache %s: bad geometry size=%d assoc=%d line=%d",
			cfg.Name, cfg.SizeBytes, cfg.Assoc, cfg.LineBytes))
	}
	sets := lines / cfg.Assoc
	if bits.OnesCount(uint(sets)) != 1 {
		panic(fmt.Sprintf("cache %s: sets=%d not a power of two", cfg.Name, sets))
	}
	c := &Cache[P]{
		name:     cfg.Name,
		assoc:    cfg.Assoc,
		setMask:  Line(sets - 1),
		tags:     make([]Line, lines),
		payloads: make([]P, lines),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	if cfg.Assoc <= orderedAssocMax {
		c.order = make([]uint64, sets)
		for i := range c.order {
			c.order[i] = identityOrder(cfg.Assoc)
		}
	} else {
		c.last = make([]uint64, lines)
	}
	return c
}

// identityOrder returns the packed order word [0, 1, ..., assoc-1]
// (way 0 MRU). Which permutation a set starts from is unobservable —
// invalid ways are filled lowest-index-first before the order word ever
// picks a victim — but the identity keeps InvalidateAll deterministic.
func identityOrder(assoc int) uint64 {
	var o uint64
	for w := assoc - 1; w >= 0; w-- {
		o = o<<4 | uint64(w)
	}
	return o
}

// promote moves way w to MRU in the packed order word o, preserving the
// relative order of the other ways: the ranks below w's old position
// shift up one nibble and w drops into rank 0.
func promote(o uint64, w int) uint64 {
	uw := uint64(w)
	if o&0xF == uw {
		return o
	}
	r := uint(1)
	for (o>>(4*r))&0xF != uw {
		r++
	}
	low := o & (1<<(4*r) - 1)
	return o&^(1<<(4*(r+1))-1) | low<<4 | uw
}

// Stats returns a copy of the access counters.
func (c *Cache[P]) Stats() Stats { return c.stats }

// Sets returns the number of sets.
func (c *Cache[P]) Sets() int { return len(c.tags) / c.assoc }

// Assoc returns the associativity.
func (c *Cache[P]) Assoc() int { return c.assoc }

// Access looks line up, updating LRU state and hit/miss counters. On a
// hit it returns a pointer to the line's payload, which the caller may
// mutate in place; on a miss it returns nil. Access does not allocate
// the line — the memory model decides when a fill completes and calls
// Insert.
//
//cgplint:hotpath
func (c *Cache[P]) Access(line Line) (*P, bool) {
	c.stats.Accesses++
	set := int(line & c.setMask)
	base := set * c.assoc
	switch c.assoc {
	case 2:
		t := c.tags[base : base+2 : base+2]
		if t[0] == line {
			c.order[set] = 0x10
			return &c.payloads[base], true
		}
		if t[1] == line {
			c.order[set] = 0x01
			return &c.payloads[base+1], true
		}
	case 4:
		t := c.tags[base : base+4 : base+4]
		if t[0] == line {
			c.order[set] = promote(c.order[set], 0)
			return &c.payloads[base], true
		}
		if t[1] == line {
			c.order[set] = promote(c.order[set], 1)
			return &c.payloads[base+1], true
		}
		if t[2] == line {
			c.order[set] = promote(c.order[set], 2)
			return &c.payloads[base+2], true
		}
		if t[3] == line {
			c.order[set] = promote(c.order[set], 3)
			return &c.payloads[base+3], true
		}
	default:
		return c.accessGeneric(line, set, base)
	}
	c.stats.Misses++
	return nil, false
}

// accessGeneric is Access for associativities without a specialized
// scan, including the wide fallback geometries.
func (c *Cache[P]) accessGeneric(line Line, set, base int) (*P, bool) {
	for w := 0; w < c.assoc; w++ {
		if c.tags[base+w] == line {
			c.touch(set, base, w)
			return &c.payloads[base+w], true
		}
	}
	c.stats.Misses++
	return nil, false
}

// touch marks way w of set as most recently used.
func (c *Cache[P]) touch(set, base, w int) {
	if c.order != nil {
		c.order[set] = promote(c.order[set], w)
		return
	}
	c.tick++
	c.last[base+w] = c.tick
}

// Probe reports whether line is resident without perturbing LRU state or
// counters. Prefetchers probe before every issue, so like Access it gets
// a specialized scan for the Table-1 associativities.
//
//cgplint:hotpath
func (c *Cache[P]) Probe(line Line) (*P, bool) {
	base := int(line&c.setMask) * c.assoc
	switch c.assoc {
	case 2:
		t := c.tags[base : base+2 : base+2]
		if t[0] == line {
			return &c.payloads[base], true
		}
		if t[1] == line {
			return &c.payloads[base+1], true
		}
	case 4:
		t := c.tags[base : base+4 : base+4]
		if t[0] == line {
			return &c.payloads[base], true
		}
		if t[1] == line {
			return &c.payloads[base+1], true
		}
		if t[2] == line {
			return &c.payloads[base+2], true
		}
		if t[3] == line {
			return &c.payloads[base+3], true
		}
	default:
		for w := 0; w < c.assoc; w++ {
			if c.tags[base+w] == line {
				return &c.payloads[base+w], true
			}
		}
	}
	return nil, false
}

// Contains reports whether line is resident, like Probe without
// materializing the payload pointer. The CPU's prefetch squash check
// probes every requested line its squash filter cannot answer — about
// one in ten — so this is a bare tag scan with no calls, small enough
// to inline into the caller (Probe's specialized scans are not).
//
//cgplint:hotpath
func (c *Cache[P]) Contains(line Line) bool {
	base := int(line&c.setMask) * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.tags[base+w] == line {
			return true
		}
	}
	return false
}

// Slot returns the index of line's way among the cache's Config.Lines()
// ways, or -1 when line is not resident. A line keeps its slot until it
// is evicted, and the line Insert fills takes its victim's slot, so a
// caller can keep per-line state beside the cache in a table with one
// entry per line of capacity.
func (c *Cache[P]) Slot(line Line) int {
	base := int(line&c.setMask) * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.tags[base+w] == line {
			return base + w
		}
	}
	return -1
}

// Evicted describes a line displaced by Insert.
type Evicted[P any] struct {
	Line    Line
	Payload P
}

// Insert fills line with the given payload, evicting the LRU way if the
// set is full. It returns the eviction, if any. Inserting a line that is
// already resident replaces its payload in place (a refill) and evicts
// nothing. While a set still has invalid ways the lowest-numbered one
// is filled — an invalid way found early is never passed over for a
// later one — so physical placement is deterministic left to right.
//
//cgplint:hotpath
func (c *Cache[P]) Insert(line Line, payload P) (Evicted[P], bool) {
	if line == invalidTag {
		panic("cache " + c.name + ": line index reserved as invalid-way sentinel")
	}
	c.stats.Inserts++
	set := int(line & c.setMask)
	base := set * c.assoc
	firstInvalid := -1
	for w := 0; w < c.assoc; w++ {
		tag := c.tags[base+w]
		if tag == line {
			c.payloads[base+w] = payload
			c.touch(set, base, w)
			return Evicted[P]{}, false
		}
		if tag == invalidTag && firstInvalid < 0 {
			firstInvalid = w
		}
	}
	victim := firstInvalid
	var ev Evicted[P]
	had := false
	if victim < 0 {
		victim = c.lruWay(set, base)
		ev = Evicted[P]{Line: c.tags[base+victim], Payload: c.payloads[base+victim]}
		had = true
		c.stats.Evictions++
	}
	c.tags[base+victim] = line
	c.payloads[base+victim] = payload
	c.touch(set, base, victim)
	return ev, had
}

// lruWay returns the least-recently-used way of a full set.
func (c *Cache[P]) lruWay(set, base int) int {
	if c.order != nil {
		return int(c.order[set] >> (4 * uint(c.assoc-1)) & 0xF)
	}
	victim := 0
	for w := 1; w < c.assoc; w++ {
		if c.last[base+w] < c.last[base+victim] {
			victim = w
		}
	}
	return victim
}

// InvalidateAll clears the cache contents (not the statistics).
func (c *Cache[P]) InvalidateAll() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	clear(c.payloads)
	for i := range c.order {
		c.order[i] = identityOrder(c.assoc)
	}
	clear(c.last)
}

// Resident returns the number of valid lines, for tests and invariant
// checks.
func (c *Cache[P]) Resident() int {
	n := 0
	for i := range c.tags {
		if c.tags[i] != invalidTag {
			n++
		}
	}
	return n
}

// ForEach visits every resident line. Iteration order is by set then
// way, which is deterministic.
func (c *Cache[P]) ForEach(fn func(line Line, payload *P)) {
	for i := range c.tags {
		if c.tags[i] != invalidTag {
			fn(c.tags[i], &c.payloads[i])
		}
	}
}
