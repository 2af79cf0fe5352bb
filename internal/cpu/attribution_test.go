package cpu_test

// Property tests for the per-function attribution layer: across every
// kernel variant and several seeds, the attribution rows must sum
// exactly to the aggregate counters the differential suite already
// pins, attribution must not perturb any aggregate, and the collection
// must stay allocation-free once warmed.

import (
	"encoding/json"
	"reflect"
	"testing"

	"cgp/internal/cpu"
	"cgp/internal/prefetch"
)

// runWithAttribution consumes the seeded stream with attribution on.
func runWithAttribution(v kernelVariant, seed int64, n int) *cpu.Stats {
	c := cpu.New(v.cfg(), v.pf())
	c.EnableAttribution()
	c.EventBatch(genEvents(seed, n))
	return c.Finish()
}

func TestAttributionInvariants(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				s := runWithAttribution(v, seed, 20000)

				var fetches, misses, prefHits, delayed int64
				var issued, squashed, useful, useless int64
				var timelinessObs int64
				for i := range s.Attribution {
					row := &s.Attribution[i]
					fetches += row.LineFetches
					misses += row.Misses
					prefHits += row.PrefHits
					delayed += row.DelayedHits
					issued += row.Issued
					squashed += row.Squashed
					useful += row.Useful
					useless += row.Useless
					for _, b := range row.Timeliness {
						timelinessObs += b
					}
					// Per-row: a prefetch settles (useful or useless) at
					// most once, and only after being issued.
					if row.Useful+row.Useless > row.Issued {
						t.Fatalf("seed %d fn %#x: useful %d + useless %d > issued %d",
							seed, row.Func, row.Useful, row.Useless, row.Issued)
					}
					// Per-row: the timeliness histogram covers exactly the
					// useful demand touches.
					var rowObs int64
					for _, b := range row.Timeliness {
						rowObs += b
					}
					if rowObs != row.PrefHits+row.DelayedHits {
						t.Fatalf("seed %d fn %#x: %d timeliness observations, want prefhits %d + delayed %d",
							seed, row.Func, rowObs, row.PrefHits, row.DelayedHits)
					}
				}

				total := s.TotalPrefetch()
				// Demand-side rows sum to the aggregate fetch accounting.
				if fetches != s.ILineAccesses {
					t.Fatalf("seed %d: attribution fetches %d != ILineAccesses %d", seed, fetches, s.ILineAccesses)
				}
				if misses != s.ICacheMisses {
					t.Fatalf("seed %d: attribution misses %d != ICacheMisses %d", seed, misses, s.ICacheMisses)
				}
				if prefHits != total.PrefHits {
					t.Fatalf("seed %d: attribution prefhits %d != %d", seed, prefHits, total.PrefHits)
				}
				if delayed != total.DelayedHits {
					t.Fatalf("seed %d: attribution delayed hits %d != %d", seed, delayed, total.DelayedHits)
				}
				// Issue-side rows sum to the aggregate issue accounting.
				if issued != total.Issued {
					t.Fatalf("seed %d: attribution issued %d != %d", seed, issued, total.Issued)
				}
				if squashed != total.Squashed {
					t.Fatalf("seed %d: attribution squashed %d != %d", seed, squashed, total.Squashed)
				}
				if useless != total.Useless {
					t.Fatalf("seed %d: attribution useless %d != %d", seed, useless, total.Useless)
				}
				// Both sides agree on usefulness: every useful issue is a
				// prefetched demand touch and vice versa.
				if useful != prefHits+delayed {
					t.Fatalf("seed %d: issue-side useful %d != demand-side prefhits %d + delayed %d",
						seed, useful, prefHits, delayed)
				}
				if issued < useful {
					t.Fatalf("seed %d: issued %d < useful %d", seed, issued, useful)
				}
				// Fetch accounting closes: every demand line access either
				// hits, hits a prefetched line, waits on one, or misses.
				if s.L1IStats.Accesses != s.ILineAccesses {
					t.Fatalf("seed %d: L1I accesses %d != ILineAccesses %d", seed, s.L1IStats.Accesses, s.ILineAccesses)
				}
				if s.L1IStats.Misses != s.ICacheMisses+total.DelayedHits {
					t.Fatalf("seed %d: L1I misses %d != full misses %d + delayed hits %d",
						seed, s.L1IStats.Misses, s.ICacheMisses, total.DelayedHits)
				}
				if timelinessObs != prefHits+delayed {
					t.Fatalf("seed %d: %d total timeliness observations, want %d", seed, timelinessObs, prefHits+delayed)
				}
			}
		})
	}
}

// TestAttributionDoesNotPerturbAggregates pins the enablement
// contract: an attribution-enabled run differs from a plain run only
// by the Attribution field.
func TestAttributionDoesNotPerturbAggregates(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				plain := cpu.New(v.cfg(), v.pf())
				plain.EventBatch(genEvents(seed, 20000))
				sp := plain.Finish()

				sa := runWithAttribution(v, seed, 20000)
				if sa.Attribution == nil {
					t.Fatalf("seed %d: attribution enabled but Stats.Attribution nil", seed)
				}
				sa.Attribution = nil
				if !reflect.DeepEqual(sp, sa) {
					t.Fatalf("seed %d: attribution changed aggregate stats\nplain: %+v\nattributed: %+v", seed, sp, sa)
				}
			}
		})
	}
}

// TestAttributionDeterministic: same stream, same rows, byte for byte.
func TestAttributionDeterministic(t *testing.T) {
	v := variants()[4] // cgp4
	a := runWithAttribution(v, 2, 20000)
	b := runWithAttribution(v, 2, 20000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("attribution differs between identical runs")
	}
	if len(a.Attribution) == 0 {
		t.Fatal("cgp4 run attributed no functions")
	}
	var useful int64
	for i := range a.Attribution {
		if i > 0 && a.Attribution[i].Func <= a.Attribution[i-1].Func {
			t.Fatalf("attribution rows not strictly sorted at %d", i)
		}
		useful += a.Attribution[i].Useful
	}
	if useful == 0 {
		t.Fatal("cgp4 run produced no useful prefetches to attribute")
	}
}

// TestEventLoopDoesNotAllocateWithAttribution extends the zero-alloc
// gate to the attributed configuration: once every function has a row
// and the ring is at steady-state size, attribution must be free of
// allocations too.
func TestEventLoopDoesNotAllocateWithAttribution(t *testing.T) {
	evs := genEvents(5, 20000)
	c := cpu.New(cpu.DefaultConfig(), prefetch.NewNL(4))
	c.EnableAttribution()
	c.EventBatch(evs) // warm: caches, ring, and all attribution rows
	allocs := testing.AllocsPerRun(10, func() {
		c.EventBatch(evs[:2000])
	})
	if allocs != 0 {
		t.Errorf("attributed event loop allocates %.1f times per 2000-event batch, want 0", allocs)
	}
}

// TestAttributionStatsJSONShape pins the serialized form of attributed
// Stats — what checkpoints store and cgpsim -stats-json prints. The
// embedded AttrCounters fields must serialize flat, in this key order,
// and the pinned bytes must decode to the same rows, so checkpoints
// already on disk keep loading.
func TestAttributionStatsJSONShape(t *testing.T) {
	const want = `{"Cycles":1000,"Instructions":800,"ICacheMisses":12,"ILineAccesses":300,"IMissStallCycles":0,"DCacheMisses":0,"DLineAccesses":0,"L2Accesses":0,"L2Misses":0,"Branches":0,"BranchMispredicts":0,"Returns":0,"RASMispredicts":0,"Calls":0,"Switches":0,"NL":{"Issued":0,"Squashed":0,"PrefHits":0,"DelayedHits":0,"Useless":0},"CGHC":{"Issued":0,"Squashed":0,"PrefHits":0,"DelayedHits":0,"Useless":0},"L1IStats":{"Accesses":0,"Misses":0,"Evictions":0,"Inserts":0},"L1DStats":{"Accesses":0,"Misses":0,"Evictions":0,"Inserts":0},"L2Stats":{"Accesses":0,"Misses":0,"Evictions":0,"Inserts":0},"Attribution":[{"Func":16384,"LineFetches":300,"Misses":12,"PrefHits":30,"DelayedHits":4,"Issued":50,"Squashed":6,"Useful":34,"Useless":9,"TimelinessSum":1234,"Timeliness":[1,0,0,2,0,0,0,30,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1]}],"QueryAttr":[{"Query":12884901906,"LineFetches":200,"Misses":7,"PrefHits":20,"DelayedHits":3,"Issued":40,"Squashed":5,"Useful":23,"Useless":8,"TimelinessSum":999}],"Sample":null}`
	s := cpu.Stats{
		Cycles: 1000, Instructions: 800, ICacheMisses: 12, ILineAccesses: 300,
		Attribution: []cpu.FuncAttribution{{
			Func: 0x4000,
			AttrCounters: cpu.AttrCounters{
				LineFetches: 300, Misses: 12, PrefHits: 30, DelayedHits: 4,
				Issued: 50, Squashed: 6, Useful: 34, Useless: 9, TimelinessSum: 1234,
			},
			Timeliness: [24]int64{0: 1, 3: 2, 7: 30, 23: 1},
		}},
		QueryAttr: []cpu.QueryAttribution{{
			Query: 0x300000012,
			AttrCounters: cpu.AttrCounters{
				LineFetches: 200, Misses: 7, PrefHits: 20, DelayedHits: 3,
				Issued: 40, Squashed: 5, Useful: 23, Useless: 8, TimelinessSum: 999,
			},
		}},
	}
	got, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("attributed Stats JSON changed shape:\ngot:  %s\nwant: %s", got, want)
	}
	var back cpu.Stats
	if err := json.Unmarshal([]byte(want), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Fatalf("pinned JSON decodes to %+v, want %+v", back, s)
	}
}
