package cpu

import (
	"math/bits"
	"sort"

	"cgp/internal/isa"
	"cgp/internal/units"
)

// attrBuckets is the number of power-of-two timeliness buckets each
// function keeps: bucket i counts issue-to-use distances d with
// bits.Len64(d) == i (bucket 0 holds zero-distance uses), and the last
// bucket absorbs everything from 2^(attrBuckets-2) cycles up.
const attrBuckets = 24

// AttrCounters is the counter block every attribution row carries —
// per function and per traced query — with the derived metrics defined
// once over it. It is part of Stats, so it is deterministic and
// replay-stable like every other counter.
//
// The two sides attribute differently, by design:
//
//   - Demand-side counters (LineFetches, Misses, PrefHits,
//     DelayedHits) belong to the function (query) that was executing
//     when the fetch happened — they answer "how well is this code
//     covered?".
//   - Issue-side counters (Issued, Squashed, Useful, Useless) belong
//     to the function (query) whose entry or execution triggered the
//     prefetch — for CGP's call/return prefetches that is the function
//     being entered, so they answer "does prefetching on behalf of this
//     function pay off?".
type AttrCounters struct {
	// LineFetches counts demand instruction line fetches executed
	// inside the row's scope; Misses is the subset that went to L2 with
	// no prefetch in sight.
	LineFetches int64
	Misses      int64
	// PrefHits / DelayedHits are first touches of prefetched lines
	// inside the scope: fully resident vs still enroute (the paper's
	// Figure 8 split, per row).
	PrefHits    int64
	DelayedHits int64

	// Issued / Squashed count prefetch requests triggered on the row's
	// behalf; Useful / Useless settle how those issues ended
	// (first-touched vs evicted untouched).
	Issued   int64
	Squashed int64
	Useful   int64
	Useless  int64

	// TimelinessSum is the total issue-to-first-use distance of the
	// row's useful demand touches. A distance below the L2 latency
	// means the prefetch was late (a delayed hit).
	TimelinessSum units.Cycles
}

// Demand returns the demand fetches a prefetcher could have served:
// misses it did not, plus the prefetch hits and delayed hits it did.
// It ranks attribution tables.
func (a *AttrCounters) Demand() int64 { return a.Misses + a.PrefHits + a.DelayedHits }

// Coverage returns the fraction of would-be misses the prefetcher
// served (fully or late) for the row's code.
func (a *AttrCounters) Coverage() float64 {
	demand := a.Demand()
	if demand == 0 {
		return 0
	}
	return float64(a.PrefHits+a.DelayedHits) / float64(demand)
}

// Accuracy returns Useful / Issued for prefetches launched on the
// row's behalf.
func (a *AttrCounters) Accuracy() float64 {
	if a.Issued == 0 {
		return 0
	}
	return float64(a.Useful) / float64(a.Issued)
}

// MeanTimeliness returns the mean issue-to-first-use distance of the
// row's useful demand touches, in cycles.
func (a *AttrCounters) MeanTimeliness() float64 {
	used := a.PrefHits + a.DelayedHits
	if used == 0 {
		return 0
	}
	return float64(a.TimelinessSum) / float64(used)
}

// observeTimeliness records one issue-to-use distance d into the sum
// and, when hist is non-nil, into its power-of-two bucket.
func (a *AttrCounters) observeTimeliness(d units.Cycles, hist *[attrBuckets]int64) {
	if d < 0 {
		d = 0
	}
	a.TimelinessSum += d
	if hist != nil {
		b := bits.Len64(uint64(d))
		if b >= attrBuckets {
			b = attrBuckets - 1
		}
		hist[b]++
	}
}

// FuncAttribution is one function's share of the prefetch accounting,
// plus the distribution of its prefetches' timeliness.
type FuncAttribution struct {
	// Func is the function's start address (0 collects fetches seen
	// before the first call event identifies a function).
	Func isa.Addr
	AttrCounters
	// Timeliness is the power-of-two histogram of the distances
	// TimelinessSum totals.
	Timeliness [attrBuckets]int64
}

// QueryAttribution is one traced query's share of the prefetch
// accounting, keyed by the wire-carried trace ID of the KindQueryTag
// event that opened its probe batch: demand-side counters belong to
// the query whose statements were executing when the fetch happened,
// issue-side counters to the query on whose behalf the prefetch was
// launched. Rows exist only for tagged queries — replaying an untagged
// capture (or any synthetic workload) produces none, so Stats
// serialization is unchanged for every pre-existing run shape.
type QueryAttribution struct {
	// Query is the trace ID from the tagging client (never zero; the
	// replayer rejects zero tags).
	Query uint64
	// AttrCounters carries no timeliness buckets: the per-function
	// table already carries the distribution.
	AttrCounters
}

// attribution is the per-function and per-query collector. It is nil
// on a CPU unless EnableAttribution was called; every hot-path hook is
// guarded by that nil check. Rows are appended on first sight of a
// function (or query) and reused forever after, so a warmed CPU
// attributes without allocating — the same steady-state contract the
// inflight ring keeps.
//
// Every event is charged to a function row and a query row. When the
// stream carries KindQueryTag events (a tagged live capture), curQ
// indexes the executing query's row; outside any tagged query — before
// the first tag, or between a context switch and the next tag, so an
// untagged batch never smears onto the previous query — it indexes
// qrows[0], a scratch row that is never exported.
type attribution struct {
	index  map[isa.Addr]int32
	rows   []FuncAttribution
	curIdx int32

	qindex map[uint64]int32
	qrows  []QueryAttribution
	curQ   int32

	// prov holds the provenance of the prefetched lines resident in
	// L1I, indexed by the line's L1I slot (cache.Cache.Slot). A slot's
	// entry is written when a prefetch fills it and read until the line
	// is first used or evicted; the table is sized once, to the L1I.
	prov []provenance
}

// provenance records where a prefetch came from: the cycle it was
// issued and the function and query rows that triggered it (query row
// 0 outside any tagged query). A queued prefetch carries it in its FIFO
// entry, a prefetched L1I line in the attribution's table.
type provenance struct {
	issuedAt units.Cycles
	issuer   int32
	qissuer  int32
}

// newAttribution builds a collector for a CPU whose L1I holds l1iLines
// lines.
func newAttribution(l1iLines int) *attribution {
	a := &attribution{
		index:  make(map[isa.Addr]int32, 64),
		qindex: make(map[uint64]int32, 16),
		qrows:  make([]QueryAttribution, 1, 16),
		prov:   make([]provenance, l1iLines),
	}
	a.curIdx = a.rowFor(0)
	return a
}

// rowFor returns the row index for the function starting at fn,
// creating the row on first sight. The lookup is the hot half; the
// first-sight miss falls through to addRow.
func (a *attribution) rowFor(fn isa.Addr) int32 {
	if i, ok := a.index[fn]; ok {
		return i
	}
	return a.addRow(fn)
}

// addRow appends a fresh row for fn. It runs once per distinct
// function in the trace, so a warmed table only takes rowFor's
// read-only fast path.
//
//cgplint:coldpath rows are created on first sight of a function; the steady-state loop only reads the index
func (a *attribution) addRow(fn isa.Addr) int32 {
	i := int32(len(a.rows))
	a.rows = append(a.rows, FuncAttribution{Func: fn})
	a.index[fn] = i
	return i
}

// enter switches the executing function (on call and return events).
func (a *attribution) enter(fn isa.Addr) {
	a.curIdx = a.rowFor(fn)
}

// enterQuery switches the executing query (on KindQueryTag events).
func (a *attribution) enterQuery(id uint64) {
	if i, ok := a.qindex[id]; ok {
		a.curQ = i
		return
	}
	a.curQ = a.addQueryRow(id)
}

// leaveQuery clears the query scope (on context switches: the next
// batch is untagged until its own tag arrives).
func (a *attribution) leaveQuery() { a.curQ = 0 }

// addQueryRow appends a fresh row for query id. Tagged captures carry
// a handful of distinct IDs, so this is first-sight-only like addRow.
//
//cgplint:coldpath rows are created on first sight of a query tag; the steady-state loop only reads the index
func (a *attribution) addQueryRow(id uint64) int32 {
	i := int32(len(a.qrows))
	a.qrows = append(a.qrows, QueryAttribution{Query: id})
	a.qindex[id] = i
	return i
}

// Demand-side hooks charge the executing function and query.

// fetched charges one demand line fetch.
func (a *attribution) fetched() {
	a.rows[a.curIdx].LineFetches++
	a.qrows[a.curQ].LineFetches++
}

// missed charges one full miss.
func (a *attribution) missed() {
	a.rows[a.curIdx].Misses++
	a.qrows[a.curQ].Misses++
}

// used settles the first demand touch, at cycle now, of a line
// prefetched with provenance p: a prefetch hit (or a delayed hit, if
// the line was still enroute) for the executing function and query,
// and a useful prefetch for the rows that issued it.
func (a *attribution) used(delayed bool, now units.Cycles, p provenance) {
	d := now - p.issuedAt
	f, q := &a.rows[a.curIdx], &a.qrows[a.curQ]
	if delayed {
		f.DelayedHits++
		q.DelayedHits++
	} else {
		f.PrefHits++
		q.PrefHits++
	}
	f.observeTimeliness(d, &f.Timeliness)
	q.observeTimeliness(d, nil)
	a.rows[p.issuer].Useful++
	a.qrows[p.qissuer].Useful++
}

// Issue-side hooks charge the function and query on whose behalf a
// prefetch was requested.

// squashed charges one dropped prefetch request.
func (a *attribution) squashed() {
	a.rows[a.curIdx].Squashed++
	a.qrows[a.curQ].Squashed++
}

// issued charges one prefetch sent to L2 at cycle now and returns the
// provenance the prefetch carries until its line is used or evicted.
func (a *attribution) issued(now units.Cycles) provenance {
	a.rows[a.curIdx].Issued++
	a.qrows[a.curQ].Issued++
	return provenance{issuedAt: now, issuer: a.curIdx, qissuer: a.curQ}
}

// useless settles a line prefetched with provenance p and evicted
// untouched.
func (a *attribution) useless(p provenance) {
	a.rows[p.issuer].Useless++
	a.qrows[p.qissuer].Useless++
}

// sorted returns a copy of the function rows ordered by start address,
// the deterministic order Stats exposes.
func (a *attribution) sorted() []FuncAttribution {
	rows := append([]FuncAttribution(nil), a.rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Func < rows[j].Func })
	return rows
}

// qsorted returns a copy of the query rows, minus the scratch row,
// ordered by trace ID: the deterministic order Stats exposes (and the
// join key order `cgpsim -trace FILE -by-query` prints). It returns nil
// when no query was tagged.
func (a *attribution) qsorted() []QueryAttribution {
	if len(a.qrows) == 1 {
		return nil
	}
	rows := append([]QueryAttribution(nil), a.qrows[1:]...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Query < rows[j].Query })
	return rows
}
