package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing deterministic-domain metric.
// Its value is derived only from simulated state, so it is identical
// across re-runs, replay, and any worker count. A nil *Counter absorbs
// all operations.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. It is a deterministic sink: the
// walltaint pass proves no wall-clock-derived value reaches n.
//
//cgplint:detsink
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Registry is the deterministic-domain metric registry: counters of
// simulated totals, created lazily by name and living for the
// registry's lifetime. The Prometheus exposition (WritePrometheus)
// emits them in sorted name order, so it is itself deterministic. A
// nil *Registry hands out nil counters, which absorb all operations.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
}

// NewRegistry returns an empty deterministic-domain registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]*Counter)}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}
