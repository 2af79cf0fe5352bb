// Package refsim freezes the pre-optimization simulation kernel — the
// array-of-structs cache model with tick-counter true LRU and the
// allocating CPU event loop — exactly as it stood before the hot-path
// overhaul (ISSUE 3). It exists for two reasons:
//
//   - Differential testing: the optimized internal/cache and
//     internal/cpu must produce byte-identical statistics on any event
//     stream. The tests replay randomized streams through both kernels
//     and compare every counter.
//   - Benchmarking: the kernel benchmarks report the optimized
//     kernel's events/sec beside this baseline's, and the root
//     package's TestKernelThroughputGuard holds their ratio above a
//     floor, so the speedup is re-measured on every run instead of
//     being a stale number in a commit message.
//
// Nothing outside tests and benchmarks may import this package; it is
// deliberately not kept API-compatible beyond what those need.
package refsim

import (
	"fmt"
	"math/bits"

	"cgp/internal/cache"
)

type way[P any] struct {
	tag     cache.Line
	valid   bool
	lastUse uint64
	payload P
}

// Cache is the frozen set-associative cache model: one struct per way,
// true-LRU replacement via a per-cache access tick.
type Cache[P any] struct {
	name    string
	sets    []way[P]
	assoc   int
	setMask cache.Line
	tick    uint64
	stats   cache.Stats
}

// NewCache builds a reference cache from cfg (same geometry rules as
// cache.New).
func NewCache[P any](cfg cache.Config) *Cache[P] {
	lines := cfg.Lines()
	if lines <= 0 || cfg.Assoc <= 0 || lines%cfg.Assoc != 0 {
		panic(fmt.Sprintf("refsim: bad geometry size=%d assoc=%d line=%d",
			cfg.SizeBytes, cfg.Assoc, cfg.LineBytes))
	}
	sets := lines / cfg.Assoc
	if bits.OnesCount(uint(sets)) != 1 {
		panic(fmt.Sprintf("refsim: sets=%d not a power of two", sets))
	}
	return &Cache[P]{
		name:    cfg.Name,
		sets:    make([]way[P], lines),
		assoc:   cfg.Assoc,
		setMask: cache.Line(sets - 1),
	}
}

// Stats returns a copy of the access counters.
func (c *Cache[P]) Stats() cache.Stats { return c.stats }

func (c *Cache[P]) setFor(line cache.Line) []way[P] {
	s := int(line&c.setMask) * c.assoc
	return c.sets[s : s+c.assoc]
}

// Access looks line up, updating LRU state and hit/miss counters.
func (c *Cache[P]) Access(line cache.Line) (*P, bool) {
	c.stats.Accesses++
	c.tick++
	set := c.setFor(line)
	for i := range set {
		if set[i].valid && set[i].tag == line {
			set[i].lastUse = c.tick
			return &set[i].payload, true
		}
	}
	c.stats.Misses++
	return nil, false
}

// Probe reports whether line is resident without perturbing LRU state
// or counters.
func (c *Cache[P]) Probe(line cache.Line) (*P, bool) {
	set := c.setFor(line)
	for i := range set {
		if set[i].valid && set[i].tag == line {
			return &set[i].payload, true
		}
	}
	return nil, false
}

// Insert fills line, evicting the LRU way if the set is full. This is
// the pre-fix victim scan: an invalid way found early is overwritten by
// a later invalid way, which changes physical placement but not any
// hit/miss/eviction outcome (evictions only happen with no invalid way
// left, and LRU order is independent of way position).
func (c *Cache[P]) Insert(line cache.Line, payload P) (cache.Evicted[P], bool) {
	c.stats.Inserts++
	c.tick++
	set := c.setFor(line)
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == line {
			set[i].payload = payload
			set[i].lastUse = c.tick
			return cache.Evicted[P]{}, false
		}
		if !set[i].valid {
			victim = i
			continue
		}
		if set[victim].valid && set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	var ev cache.Evicted[P]
	had := false
	if set[victim].valid {
		ev = cache.Evicted[P]{Line: set[victim].tag, Payload: set[victim].payload}
		had = true
		c.stats.Evictions++
	}
	set[victim] = way[P]{tag: line, valid: true, lastUse: c.tick, payload: payload}
	return ev, had
}
