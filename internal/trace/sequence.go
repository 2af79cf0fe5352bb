package trace

import (
	"sort"

	"cgp/internal/program"
)

// SequenceProfile records, for every function, the *modal* callee at
// each call position: across invocations, which function is most often
// the 1st call, the 2nd call, and so on. This is the call-graph
// information a compiler would extract from profile executions to
// implement CGP entirely in software (§6's future-work variant).
type SequenceProfile struct {
	// counts[fn][slot][callee] = occurrences.
	counts map[program.FuncID][]map[program.FuncID]int64
	// MaxSlots bounds the per-function sequence length recorded.
	MaxSlots int
}

// NewSequenceProfile returns an empty profile recording up to maxSlots
// call positions per function (8 matches the hardware CGHC entry).
func NewSequenceProfile(maxSlots int) *SequenceProfile {
	if maxSlots <= 0 {
		maxSlots = 8
	}
	return &SequenceProfile{
		counts:   make(map[program.FuncID][]map[program.FuncID]int64),
		MaxSlots: maxSlots,
	}
}

// Record notes that fn's call at position slot (0-based) targeted
// callee.
func (p *SequenceProfile) Record(fn program.FuncID, slot int, callee program.FuncID) {
	if slot >= p.MaxSlots || fn == program.NoFunc {
		return
	}
	slots := p.counts[fn]
	for len(slots) <= slot {
		slots = append(slots, make(map[program.FuncID]int64))
	}
	p.counts[fn] = slots
	slots[slot][callee]++
}

// Sequence returns fn's modal callee sequence.
func (p *SequenceProfile) Sequence(fn program.FuncID) []program.FuncID {
	slots := p.counts[fn]
	out := make([]program.FuncID, 0, len(slots))
	for _, m := range slots {
		best := program.NoFunc
		var bestN int64
		for callee, n := range m {
			if n > bestN || (n == bestN && callee < best) {
				// The (count desc, callee asc) tiebreak is a total order, so
				// the winner is independent of map-iteration order.
				//cgplint:ignore maporder arg-max with a total (count, callee) tiebreak is order-independent
				best, bestN = callee, n
			}
		}
		if best == program.NoFunc {
			break
		}
		out = append(out, best)
	}
	return out
}

// Functions returns every function with a recorded sequence, in
// ascending ID order.
func (p *SequenceProfile) Functions() []program.FuncID {
	out := make([]program.FuncID, 0, len(p.counts))
	for fn := range p.counts {
		out = append(out, fn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of functions with recorded sequences.
func (p *SequenceProfile) Len() int { return len(p.counts) }

// SequenceCollector is a Consumer that builds a SequenceProfile by
// tracking call positions on a shadow stack. Context switches restart
// the stack per thread is unnecessary: each thread's tracer emits
// structurally balanced call/return events, and interleaving only
// occurs at scheduler switch points, so the collector keeps one stack
// per thread keyed by the switch events.
type SequenceCollector struct {
	Profile *SequenceProfile

	// Per-thread shadow stacks: thread id -> stack of (fn, nextSlot).
	stacks map[int32][]seqFrame
	cur    int32
}

type seqFrame struct {
	fn   program.FuncID
	slot int
}

// NewSequenceCollector returns a collector recording up to maxSlots
// call positions per function.
func NewSequenceCollector(maxSlots int) *SequenceCollector {
	return &SequenceCollector{
		Profile: NewSequenceProfile(maxSlots),
		stacks:  map[int32][]seqFrame{0: nil},
	}
}

// EventBatch implements Consumer.
func (c *SequenceCollector) EventBatch(evs []Event) {
	for i := range evs {
		c.event(&evs[i])
	}
}

func (c *SequenceCollector) event(ev *Event) {
	switch ev.Kind {
	case KindSwitch:
		c.cur = ev.N
		if _, ok := c.stacks[c.cur]; !ok {
			c.stacks[c.cur] = nil
		}
	case KindCall:
		stack := c.stacks[c.cur]
		if n := len(stack); n > 0 {
			top := &stack[n-1]
			c.Profile.Record(top.fn, top.slot, ev.Fn)
			top.slot++
		}
		c.stacks[c.cur] = append(stack, seqFrame{fn: ev.Fn})
	case KindReturn:
		stack := c.stacks[c.cur]
		if n := len(stack); n > 0 {
			c.stacks[c.cur] = stack[:n-1]
		}
	}
}
