package trace

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cgp/internal/units"
)

// perEventStats is the reference count Stats.EventBatch must match: one
// event at a time, one case per kind.
func perEventStats(evs []Event) Stats {
	var s Stats
	for _, ev := range evs {
		s.Events++
		switch ev.Kind {
		case KindRun:
			s.Instructions += units.Instrs(ev.N)
		case KindLoop:
			s.Instructions += units.Instrs(int64(ev.N) * int64(ev.Iters))
			s.Loops++
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
	return s
}

// TestStatsEventBatchMatchesPerEventCount: random streams over every
// kind — the probe kinds, query tags and kinds past KindQueryTag
// included, one of which shares its low bits with KindCall — counted
// by EventBatch over random batch splits give the per-event reference's
// Stats exactly.
func TestStatsEventBatchMatchesPerEventCount(t *testing.T) {
	var kinds []Kind
	for k := KindRun; k <= KindQueryTag; k++ {
		kinds = append(kinds, k)
	}
	kinds = append(kinds, KindQueryTag+1, 16+KindCall)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		evs := make([]Event, rng.Intn(4000))
		for i := range evs {
			evs[i] = Event{
				Kind:  kinds[rng.Intn(len(kinds))],
				N:     rng.Int31n(1<<16) - 8,
				Iters: rng.Int31n(1 << 10),
				Taken: rng.Intn(2) == 0,
			}
		}
		var got Stats
		for rest := evs; len(rest) > 0; {
			m := 1 + rng.Intn(min(len(rest), 1+rng.Intn(1024)))
			got.EventBatch(rest[:m])
			rest = rest[m:]
		}
		if want := perEventStats(evs); got != want {
			t.Logf("seed %d: EventBatch %+v, per event %+v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
