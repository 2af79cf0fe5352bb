package trace

import (
	"cgp/internal/program"
	"cgp/internal/units"
)

// Stats is a Consumer that accumulates aggregate statistics about a
// trace: instruction, call, branch and data-reference counts. Like
// every simulator counter it is deterministic-domain data — derived
// only from the event stream, identical across replays, safe in
// report bodies and the -stats-json dump.
type Stats struct {
	Instructions units.Instrs
	Calls        int64
	Returns      int64
	Branches     int64
	TakenBrs     int64
	Loops        int64
	DataRefs     int64
	DataBytes    int64
	Switches     int64
	Events       int64
	// ProbeOps counts probe-level events (KindProbe*): nonzero only
	// for live-capture recordings, which store the instrumentation
	// seam instead of a synthesized instruction stream.
	ProbeOps int64
	// QueryTags counts KindQueryTag events: the trace-ID tags a live
	// capture of tagged traffic carries, one per tagged query batch.
	QueryTags int64
}

// EventBatch implements Consumer.
func (s *Stats) EventBatch(evs []Event) {
	for i := range evs {
		s.add(&evs[i])
	}
}

// add counts one event.
func (s *Stats) add(ev *Event) {
	s.Events++
	switch ev.Kind {
	case KindRun:
		s.Instructions += ev.Instructions()
	case KindLoop:
		s.Instructions += ev.Instructions()
		s.Loops++
		// One backward branch per iteration.
		s.Branches += int64(ev.Iters)
		s.TakenBrs += int64(ev.Iters) - 1
	case KindBranch:
		s.Branches++
		if ev.Taken {
			s.TakenBrs++
		}
	case KindCall:
		s.Calls++
	case KindReturn:
		s.Returns++
	case KindData:
		s.DataRefs++
		s.DataBytes += int64(ev.N)
	case KindSwitch:
		s.Switches++
	case KindProbeEnter, KindProbeExit, KindProbeWork, KindProbeData:
		s.ProbeOps++
	case KindQueryTag:
		s.QueryTags++
	}
}

// InstructionsPerCall reports the average number of instructions between
// dynamic calls. The paper measures 43 for the DB workloads (§5.4).
func (s *Stats) InstructionsPerCall() float64 {
	if s.Calls == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Calls)
}

// EventsPerKInstr reports trace density: encoded events per thousand
// simulated instructions. It is the recorder's run-length-efficiency
// diagnostic — a rising value means basic blocks are fragmenting into
// more events for the same instruction work.
func (s *Stats) EventsPerKInstr() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return 1000 * float64(s.Events) / float64(s.Instructions)
}

// ProfileCollector is a Consumer that builds a program.Profile from a
// run — the stand-in for the instrumented profile pass OM requires.
type ProfileCollector struct {
	Profile *program.Profile
}

// NewProfileCollector returns a collector with a fresh profile.
func NewProfileCollector() *ProfileCollector {
	return &ProfileCollector{Profile: program.NewProfile()}
}

// EventBatch implements Consumer.
func (p *ProfileCollector) EventBatch(evs []Event) {
	for i := range evs {
		switch ev := &evs[i]; ev.Kind {
		case KindCall:
			p.Profile.AddCall(ev.Caller, ev.Fn)
		case KindRun:
			p.Profile.AddInstructions(int64(ev.N))
		case KindLoop:
			p.Profile.AddInstructions(int64(ev.N) * int64(ev.Iters))
		}
	}
}

// Capture is a Consumer that stores decoded events in memory, mainly
// for tests. For recording real workloads use Recorder, which stores
// the encoded form at a fraction of the memory.
type Capture struct {
	Events []Event
}

// EventBatch implements Consumer.
func (c *Capture) EventBatch(evs []Event) { c.Events = append(c.Events, evs...) }
