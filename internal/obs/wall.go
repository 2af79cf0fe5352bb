package obs

import (
	"sync"
	"time"

	"cgp/internal/units"
)

// nowWall reads the host clock. This is the wall-clock observability
// domain's sanctioned clock read: the result is typed units.WallNanos,
// which the cyclesafe analyzer keeps out of deterministic output, and
// everything in this package that touches it (spans, wall metrics, the
// run log) is quarantined from report bodies.
//
//cgplint:ignore detrand the wall-clock domain's single clock source; results are typed units.WallNanos and cannot reach deterministic output
func nowWall() units.WallNanos { return units.WallNanos(time.Now().UnixNano()) }

// wallInt converts a wall-clock quantity to a plain integer for
// serialization. The conversion lives here, in the wall-domain
// artifact writers, so the suppression below is the only sanctioned
// exit from the WallNanos type.
//
//cgplint:ignore cyclesafe wall-domain serialization boundary: the value flows into /metrics, the Chrome trace or the run log, never into report bodies
func wallInt(v units.WallNanos) int64 { return int64(v) }

// WallRegistry is the wall-clock-domain registry: phase durations and
// host-dependent event counts (retries, checkpoint hits as observed,
// scheduling accidents). Values here differ run to run; they are
// served by /metrics with a `wall_` prefix and must never feed a
// figure, report body, or deterministic-domain metric — cgplint's
// detrand and cyclesafe passes enforce the boundary. A nil
// *WallRegistry absorbs all operations.
type WallRegistry struct {
	mu     sync.Mutex
	counts map[string]int64
	totals map[string]units.WallNanos
	spent  map[string]int64
}

// NewWallRegistry returns an empty wall-clock-domain registry.
func NewWallRegistry() *WallRegistry {
	return &WallRegistry{
		counts: make(map[string]int64),
		totals: make(map[string]units.WallNanos),
		spent:  make(map[string]int64),
	}
}

// Incr adds n to the named wall-domain event counter.
func (r *WallRegistry) Incr(name string, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] += n
	r.mu.Unlock()
}

// Observe records one duration under the named timer: the count of
// observations and the total time both accumulate.
func (r *WallRegistry) Observe(name string, d units.WallNanos) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.totals[name] += d
	r.spent[name]++
	r.mu.Unlock()
}

// Count returns the named event counter's value.
func (r *WallRegistry) Count(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[name]
}

// Total returns the accumulated duration under the named timer.
func (r *WallRegistry) Total(name string) units.WallNanos {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.totals[name]
}
