package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"cgp/internal/isa"
	"cgp/internal/prefetch"
)

// pinnedStream drives p with a fixed call/return stream: a seeded
// static call graph of 160 functions, each calling up to 12 callees
// (so entries fill all 8 slots and saturate), walked four deep from
// random roots with an occasional skipped call (so histories diverge)
// and an occasional unknown caller (so the CPU's zero start address is
// fed too). Function starts are distinct random lines among 4096, so
// they conflict in every finite level the catalogue uses, the 32 KB
// ones included. It returns an FNV-64a hash of every request issued.
func pinnedStream(p *CGP) uint64 {
	state := uint64(0x9e3779b97f4a7c15)
	rnd := func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	const fns = 160
	starts := make([]isa.Addr, 0, fns)
	for seen := map[isa.Addr]bool{}; len(starts) < fns; {
		a := isa.Addr(0x400000 + rnd(4096)*isa.LineBytes)
		if !seen[a] {
			seen[a] = true
			starts = append(starts, a)
		}
	}
	start := func(f int) isa.Addr { return starts[f] }
	callees := make([][]int, fns)
	for f := range callees {
		if f >= fns-20 {
			continue // leaves
		}
		for i, n := 0, rnd(13); i < n; i++ {
			callees[f] = append(callees[f], f+1+rnd(min(40, fns-1-f)))
		}
	}
	h := fnv.New64a()
	issue := func(r prefetch.Request) {
		fmt.Fprintf(h, "%x/%d/%d;", r.Addr, r.Lines, r.Portion)
	}
	var walk func(f, depth int)
	walk = func(f, depth int) {
		if depth == 4 {
			return
		}
		for _, c := range callees[f] {
			if rnd(10) == 0 {
				continue
			}
			caller := start(f)
			if rnd(50) == 0 {
				caller = 0
			}
			p.OnCall(start(c), caller, issue)
			walk(c, depth+1)
			p.OnReturn(caller, start(c), issue)
		}
	}
	for i := 0; i < 100; i++ {
		root := rnd(40)
		p.OnCall(start(root), 0, issue)
		walk(root, 0)
		p.OnReturn(0, start(root), issue)
	}
	return h.Sum64()
}

// TestCGHCGeometriesPinned pins every CGP counter, and the requests CGP
// issues, for each CGHC geometry the figure catalogue runs (Figure 5's
// five, the associativity ablation's three and the entry-width
// ablation's three), at both degrees, over one fixed stream. The
// level-two hit count reaches no figure, so only this test sees it
// move.
func TestCGHCGeometriesPinned(t *testing.T) {
	const k = 1024
	geoms := []struct {
		name string
		cfg  Config
	}{
		{"1K", Config{L1Bytes: 1 * k}},
		{"32K", Config{L1Bytes: 32 * k}},
		{"1K+16K", Config{L1Bytes: 1 * k, L2Bytes: 16 * k}},
		{"2K+32K", Config{L1Bytes: 2 * k, L2Bytes: 32 * k}},
		{"Inf", Config{Infinite: true}},
		{"1K-1way", Config{L1Bytes: 1 * k, Ways: 1}},
		{"1K-2way", Config{L1Bytes: 1 * k, Ways: 2}},
		{"1K-4way", Config{L1Bytes: 1 * k, Ways: 4}},
		{"2K+32K-slots2", Config{L1Bytes: 2 * k, L2Bytes: 32 * k, Slots: 2}},
		{"2K+32K-slots4", Config{L1Bytes: 2 * k, L2Bytes: 32 * k, Slots: 4}},
		{"2K+32K-slots8", Config{L1Bytes: 2 * k, L2Bytes: 32 * k, Slots: 8}},
	}
	// What each geometry gives on this stream. A value that moves means
	// a simulated counter moved.
	want := map[string]string{
		"cgp2/1K":            "prefetch 124672/58940 update 178413/5199 l2 0 cghc 40726 calls 92752 returns 92752 hash a6e9652003e370ec",
		"cgp2/32K":           "prefetch 181587/2025 update 183608/4 l2 0 cghc 289888 calls 92752 returns 92752 hash 56daccb2eb3000a0",
		"cgp2/1K+16K":        "prefetch 179364/4248 update 183612/0 l2 59891 cghc 271900 calls 92752 returns 92752 hash f3a13a3713b23cb2",
		"cgp2/2K+32K":        "prefetch 182371/1241 update 183612/0 l2 40369 cghc 293162 calls 92752 returns 92752 hash 9d6ed4fbef691503",
		"cgp2/Inf":           "prefetch 183453/159 update 183612/0 l2 0 cghc 320586 calls 92752 returns 92752 hash 104c69e4f9767a49",
		"cgp2/1K-1way":       "prefetch 124672/58940 update 178413/5199 l2 0 cghc 40726 calls 92752 returns 92752 hash a6e9652003e370ec",
		"cgp2/1K-2way":       "prefetch 128391/55221 update 183448/164 l2 0 cghc 41730 calls 92752 returns 92752 hash 4183f1b1a5b6a178",
		"cgp2/1K-4way":       "prefetch 130757/52855 update 183580/32 l2 0 cghc 49248 calls 92752 returns 92752 hash bd6e5633a85b4178",
		"cgp2/2K+32K-slots2": "prefetch 182371/1241 update 183612/0 l2 40369 cghc 184036 calls 92752 returns 92752 hash e05087f2e1bb4dcf",
		"cgp2/2K+32K-slots4": "prefetch 182371/1241 update 183612/0 l2 40369 cghc 231624 calls 92752 returns 92752 hash ab9401efcbe1d056",
		"cgp2/2K+32K-slots8": "prefetch 182371/1241 update 183612/0 l2 40369 cghc 293162 calls 92752 returns 92752 hash 9d6ed4fbef691503",
		"cgp4/1K":            "prefetch 124672/58940 update 178413/5199 l2 0 cghc 81452 calls 92752 returns 92752 hash 0b7b96465940cb4a",
		"cgp4/32K":           "prefetch 181587/2025 update 183608/4 l2 0 cghc 579776 calls 92752 returns 92752 hash bbae47f311dcc510",
		"cgp4/1K+16K":        "prefetch 179364/4248 update 183612/0 l2 59891 cghc 543800 calls 92752 returns 92752 hash 52bff258d493c58e",
		"cgp4/2K+32K":        "prefetch 182371/1241 update 183612/0 l2 40369 cghc 586324 calls 92752 returns 92752 hash 41725feb4e29d86d",
		"cgp4/Inf":           "prefetch 183453/159 update 183612/0 l2 0 cghc 641172 calls 92752 returns 92752 hash b50d6ec011652743",
		"cgp4/1K-1way":       "prefetch 124672/58940 update 178413/5199 l2 0 cghc 81452 calls 92752 returns 92752 hash 0b7b96465940cb4a",
		"cgp4/1K-2way":       "prefetch 128391/55221 update 183448/164 l2 0 cghc 83460 calls 92752 returns 92752 hash 17da0ffccd10760e",
		"cgp4/1K-4way":       "prefetch 130757/52855 update 183580/32 l2 0 cghc 98496 calls 92752 returns 92752 hash 9f3195c15d1c33c4",
		"cgp4/2K+32K-slots2": "prefetch 182371/1241 update 183612/0 l2 40369 cghc 368072 calls 92752 returns 92752 hash 2861be1ac7a17253",
		"cgp4/2K+32K-slots4": "prefetch 182371/1241 update 183612/0 l2 40369 cghc 463248 calls 92752 returns 92752 hash e1d21037bea27856",
		"cgp4/2K+32K-slots8": "prefetch 182371/1241 update 183612/0 l2 40369 cghc 586324 calls 92752 returns 92752 hash 41725feb4e29d86d",
	}
	for _, lines := range []int{2, 4} {
		for _, g := range geoms {
			name := fmt.Sprintf("cgp%d/%s", lines, g.name)
			t.Run(name, func(t *testing.T) {
				cfg := g.cfg
				cfg.Lines = lines
				p := New(cfg)
				sum := pinnedStream(p)
				s := p.Stats()
				h := s.History
				got := fmt.Sprintf("prefetch %d/%d update %d/%d l2 %d cghc %d calls %d returns %d hash %016x",
					h.PrefetchHits, h.PrefetchMisses, h.UpdateHits, h.UpdateMisses, h.LevelTwoHits,
					s.CGHCPrefetches, s.CallAccesses, s.ReturnAccesses, sum)
				if got != want[name] {
					t.Errorf("got  %s\nwant %s", got, want[name])
				}
			})
		}
	}
}
