package main

import (
	"math"
	"slices"
	"sync"
	"time"
)

// The hosts this benchmark runs on are shared, and their speed drifts by
// a third or more for minutes at a time, while other tenants load the
// same cores and caches. A longer run does not average out a slowdown
// that lasts minutes, so runs of the same code would disagree by more than
// any useful bound. Each run therefore also times a fixed probe, between
// its units of measured work (simulation reps, serving slices, set-ups),
// and reports its times at the reference host speed: multiplied by the
// run's host speed, probeRef over the median probe round. A change to the
// program moves the run's times and not the probe's, so it shows in full;
// a drift of the host moves both, and cancels. The speed is one number per
// run, the median of all its rounds, because the host also jitters within
// a second and one short round catches only that. Each run's notes print
// the speed and the raw times beside the scaled metrics.

// probeRef is a probe round's median time on the 2-vCPU host the
// benchmark was defined on (README.md, Host speed).
const probeRef = 60 * time.Millisecond

// probeKeys is how many keys a probe round hashes, looks up and sorts.
const probeKeys = 200_000

// probeChain is how many steps a probe round's multiply chain takes.
const probeChain = 20_000_000

// speedProbe is the probe. A round does two kinds of work on as many
// goroutines (lanes) as the workload keeps CPUs busy: a dependent multiply
// chain, which only the core's clock and its sharing with other tenants
// slow, and a hash map build, three passes of lookups and a sort, which
// contention for caches and memory slows too. The round's time is the
// geometric mean of the two parts' times, so each counts equally: the
// simulator and the database engine do both kinds of work, and on the
// host the benchmark was defined on either part alone tracked one kind of
// workload and missed the other (README.md, Host speed). The maps and key
// slices are allocated once, so a probe allocates nothing and its time
// does not depend on the heap the program leaves behind.
type speedProbe struct {
	lanes []probeLane
	times []time.Duration // every round's time
}

type probeLane struct {
	m    map[uint64]uint64
	keys []uint64
	sink uint64
	// chain and hash are the lane's last round's part times.
	chain, hash time.Duration
}

// newSpeedProbe returns a probe with n lanes.
func newSpeedProbe(n int) *speedProbe {
	p := &speedProbe{lanes: make([]probeLane, n)}
	for i := range p.lanes {
		p.lanes[i] = probeLane{m: make(map[uint64]uint64, probeKeys), keys: make([]uint64, probeKeys)}
	}
	return p
}

// run probes the host for the given number of rounds.
func (p *speedProbe) run(rounds int) {
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for i := range p.lanes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.lanes[i].round()
			}()
		}
		wg.Wait()
		var chain, hash float64
		for _, l := range p.lanes {
			chain += float64(l.chain)
			hash += float64(l.hash)
		}
		p.times = append(p.times, time.Duration(math.Sqrt(chain*hash)/float64(len(p.lanes))))
	}
}

// round is one lane's work. It is the same on every run.
func (l *probeLane) round() {
	s := now()
	c := uint64(1)
	for i := 0; i < probeChain; i++ {
		c = c*6364136223846793005 + 1442695040888963407
	}
	l.chain = since(s)

	s = now()
	clear(l.m)
	x := uint64(0)
	for i := range l.keys {
		x += 0x9e3779b97f4a7c15 // splitmix64
		z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		l.keys[i] = z ^ (z >> 31)
		l.m[l.keys[i]] = uint64(i)
	}
	var acc uint64
	for pass := uint64(0); pass < 3; pass++ {
		for _, k := range l.keys {
			acc += l.m[k^(pass&1)]
		}
	}
	slices.Sort(l.keys)
	l.hash = since(s)
	l.sink += c + acc + l.keys[0]
}

// speed is the host's speed over the run so far relative to the
// reference host: probeRef over the median round.
func (p *speedProbe) speed() float64 {
	return float64(probeRef) / float64(median(p.times))
}

// atRef scales a duration measured at the given host speed to the
// reference speed.
func atRef(d time.Duration, speed float64) time.Duration {
	return time.Duration(float64(d) * speed)
}
