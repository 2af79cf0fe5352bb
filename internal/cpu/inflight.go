package cpu

import (
	"cgp/internal/isa"
	"cgp/internal/prefetch"
	"cgp/internal/units"
)

// inflight tracks a prefetch that has been issued to the L2 FIFO but
// has not yet filled L1I. Entries are value-typed and live inside the
// ring buffer — the steady-state event loop never heap-allocates one.
type inflight struct {
	line    isa.Addr // line-aligned address
	readyAt units.Cycles
	portion prefetch.Portion
	done    bool
	// prov is the prefetch's attribution provenance, zero when
	// attribution is disabled.
	prov provenance
}

// inflightRing is the prefetch FIFO plus its lookup index. Completion
// order equals issue order because the L1<->L2 bus is FIFO, so the
// queue is a power-of-two ring of inflight values addressed by absolute
// sequence number; the by-line membership test the old model paid a Go
// map for is a small open-addressed hash table (linear probing with
// backward-shift deletion, so it carries no tombstones and never
// rehashes in steady state). The FIFO is bounded and shallow — an entry
// leaves at most (L2+memory latency)/bus-occupancy issues after it
// enters — so both structures reach a fixed size early in a run and
// allocate nothing afterwards.
type inflightRing struct {
	buf  []inflight // power-of-two length; seq s lives at buf[s&(len-1)]
	head uint64     // absolute sequence of the oldest entry
	tail uint64     // absolute sequence one past the newest

	// Index from line address to seq+1 (0 marks an empty slot).
	keys      []isa.Addr
	vals      []uint64
	live      int
	hashShift uint
}

const (
	ringInitLen = 64
	idxInitLen  = 128
	// hashMul is the 64-bit golden-ratio multiplier of Fibonacci
	// hashing; the index keeps the high bits, which mixes the
	// line-aligned (low-zero) addresses well.
	hashMul = 0x9E3779B97F4A7C15
)

func (r *inflightRing) init() {
	r.buf = make([]inflight, ringInitLen)
	r.keys = make([]isa.Addr, idxInitLen)
	r.vals = make([]uint64, idxInitLen)
	r.hashShift = 64 - uint(len64(idxInitLen))
}

// len64 returns log2(n) for power-of-two n.
func len64(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

func (r *inflightRing) empty() bool { return r.head == r.tail }

func (r *inflightRing) slot(line isa.Addr) uint64 {
	return (uint64(line) * hashMul) >> r.hashShift
}

// lookup returns the in-flight entry for line, or nil. The pointer is
// valid until the next push.
func (r *inflightRing) lookup(line isa.Addr) *inflight {
	mask := uint64(len(r.keys) - 1)
	for i := r.slot(line); ; i = (i + 1) & mask {
		v := r.vals[i]
		if v == 0 {
			return nil
		}
		if r.keys[i] == line {
			return &r.buf[(v-1)&uint64(len(r.buf)-1)]
		}
	}
}

// push appends an entry to the FIFO and indexes it. The caller must
// have checked that line is not already in flight.
func (r *inflightRing) push(e inflight) {
	if int(r.tail-r.head) == len(r.buf) {
		r.growRing()
	}
	r.buf[r.tail&uint64(len(r.buf)-1)] = e
	if (r.live+1)*4 > len(r.keys)*3 {
		r.growIndex()
	}
	mask := uint64(len(r.keys) - 1)
	i := r.slot(e.line)
	for r.vals[i] != 0 {
		i = (i + 1) & mask
	}
	r.keys[i] = e.line
	r.vals[i] = r.tail + 1
	r.live++
	r.tail++
}

// front returns the oldest entry; the FIFO must not be empty.
func (r *inflightRing) front() *inflight {
	return &r.buf[r.head&uint64(len(r.buf)-1)]
}

// popFront drops the oldest entry. It does not touch the index: the
// caller removes the line first (or already removed it when the entry
// was consumed as a delayed hit and marked done).
func (r *inflightRing) popFront() { r.head++ }

// remove deletes line from the index using backward-shift compaction,
// keeping every remaining probe chain unbroken without tombstones.
func (r *inflightRing) remove(line isa.Addr) {
	mask := uint64(len(r.keys) - 1)
	i := r.slot(line)
	for {
		if r.vals[i] == 0 {
			return
		}
		if r.keys[i] == line {
			break
		}
		i = (i + 1) & mask
	}
	j := i
	for {
		j = (j + 1) & mask
		if r.vals[j] == 0 {
			break
		}
		// The entry at j may fill the hole at i only if its home slot
		// is cyclically at or before i; otherwise moving it would break
		// its own probe chain.
		if (j-r.slot(r.keys[j]))&mask >= (j-i)&mask {
			r.keys[i], r.vals[i] = r.keys[j], r.vals[j]
			i = j
		}
	}
	r.vals[i] = 0
	r.live--
}

// growRing doubles the ring, re-seating entries so seq&mask stays
// correct under the new mask.
//
//cgplint:coldpath the ring reaches its steady-state size within the first memory-latency window; growth is a warmup-only event
func (r *inflightRing) growRing() {
	nb := make([]inflight, len(r.buf)*2)
	oldMask := uint64(len(r.buf) - 1)
	newMask := uint64(len(nb) - 1)
	for s := r.head; s != r.tail; s++ {
		nb[s&newMask] = r.buf[s&oldMask]
	}
	r.buf = nb
}

// growIndex doubles the hash table and reinserts the live keys.
//
//cgplint:coldpath the index reaches its steady-state size within the first memory-latency window; growth is a warmup-only event
func (r *inflightRing) growIndex() {
	oldKeys, oldVals := r.keys, r.vals
	r.keys = make([]isa.Addr, len(oldKeys)*2)
	r.vals = make([]uint64, len(oldVals)*2)
	r.hashShift--
	mask := uint64(len(r.keys) - 1)
	for oi, v := range oldVals {
		if v == 0 {
			continue
		}
		i := r.slot(oldKeys[oi])
		for r.vals[i] != 0 {
			i = (i + 1) & mask
		}
		r.keys[i] = oldKeys[oi]
		r.vals[i] = v
	}
}
