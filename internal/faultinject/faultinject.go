// Package faultinject provides deterministic fault injectors for the
// harness's chaos tests: event-counted panics and cancellations on the
// consumer path, and seeded byte corruption of sealed recordings.
//
// Every injector is deterministic — faults fire at a fixed event count
// or at offsets derived from a caller-supplied seed — so a chaos test
// that fails reproduces exactly under the same inputs, in keeping with
// the repo's determinism rules (DESIGN.md §7).
package faultinject

import "cgp/internal/trace"

// counter forwards events to inner and invokes fire exactly once, when
// the n-th event (1-based) arrives and before it is forwarded: a batch
// holding it is forwarded up to the event, fire runs, then the rest
// follows.
type counter struct {
	inner trace.Consumer
	fire  func()
	n     int64
	seen  int64
}

// EventBatch implements trace.Consumer.
func (c *counter) EventBatch(evs []trace.Event) {
	k := c.n - c.seen - 1 // events of this batch before the n-th
	c.seen += int64(len(evs))
	if k < 0 || k >= int64(len(evs)) {
		c.inner.EventBatch(evs)
		return
	}
	c.inner.EventBatch(evs[:k])
	c.fire()
	c.inner.EventBatch(evs[k:])
}

// PanicAfter returns a consumer that forwards to inner and panics with
// v when the n-th event arrives. It models a crashing simulation: the
// harness must convert the panic into a *JobError for that cell only.
func PanicAfter(inner trace.Consumer, n int64, v any) trace.Consumer {
	return &counter{inner: inner, n: n, fire: func() { panic(v) }}
}

// CancelAfter returns a consumer that forwards to inner and invokes
// cancel when the n-th event arrives (the event itself still flows;
// the campaign notices at its next cancellation poll). It models an
// operator interrupt or deadline landing mid-simulation.
func CancelAfter(inner trace.Consumer, n int64, cancel func()) trace.Consumer {
	return &counter{inner: inner, n: n, fire: cancel}
}

// Corrupt XOR-flips n deterministically chosen bytes of rec, derived
// from seed by a fixed LCG, and returns the flipped offsets. It models
// in-memory corruption of a sealed trace; replaying rec must fail with
// a *trace.CorruptionError until the recording is rebuilt.
func Corrupt(rec *trace.Recording, seed int64, n int) []int64 {
	size := rec.Bytes()
	if size == 0 || n <= 0 {
		return nil
	}
	state := uint64(seed)
	offs := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		// Knuth's MMIX LCG constants; any full-period mix works here.
		state = state*6364136223846793005 + 1442695040888963407
		off := int64(state>>16) % size
		mask := byte(state>>8) | 1
		if rec.CorruptByte(off, mask) {
			offs = append(offs, off)
		}
	}
	return offs
}
