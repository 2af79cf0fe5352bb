package cgp

import (
	"fmt"

	"cgp/internal/core"
	"cgp/internal/cpu"
	"cgp/internal/prefetch"
	"cgp/internal/sample"
)

// Layout selects the binary layout (the paper's two baselines).
type Layout int

const (
	// LayoutO5 is the compiler-optimized binary in link order.
	LayoutO5 Layout = iota
	// LayoutOM applies the OM-style profile-guided code layout.
	LayoutOM
)

// String returns "O5" or "O5+OM".
func (l Layout) String() string {
	if l == LayoutOM {
		return "O5+OM"
	}
	return "O5"
}

// PrefetcherKind selects the instruction prefetcher.
type PrefetcherKind int

const (
	// PrefNone disables prefetching.
	PrefNone PrefetcherKind = iota
	// PrefNL is next-N-line prefetching.
	PrefNL
	// PrefRunAheadNL is the §5.6 run-ahead variant.
	PrefRunAheadNL
	// PrefCGP is Call Graph Prefetching.
	PrefCGP
	// PrefSoftwareCGP is the §6 all-software variant: compiler-inserted
	// prefetches driven by a static, profile-derived call-graph table.
	PrefSoftwareCGP
)

// CGHCConfig sizes the Call Graph History Cache.
type CGHCConfig struct {
	// L1Bytes is the first-level size (0 with Infinite).
	L1Bytes int
	// L2Bytes adds a second level when nonzero.
	L2Bytes int
	// Infinite selects the unbounded CGHC.
	Infinite bool
	// Ways selects set-associativity (0/1 = direct-mapped, the paper's
	// design; >1 is the ablation variant).
	Ways int
	// Slots caps recorded callees per entry (0 = 8, the paper's value).
	Slots int
}

// DefaultCGHC is the paper's preferred 2KB+32KB two-level CGHC.
func DefaultCGHC() CGHCConfig { return CGHCConfig{L1Bytes: 2 * 1024, L2Bytes: 32 * 1024} }

// String names the configuration as the paper does (CGHC-2K+32K, ...).
func (c CGHCConfig) String() string {
	var s string
	switch {
	case c.Infinite:
		s = "CGHC-Inf"
	case c.L2Bytes > 0:
		s = fmt.Sprintf("CGHC-%dK+%dK", c.L1Bytes/1024, c.L2Bytes/1024)
	default:
		s = fmt.Sprintf("CGHC-%dK", c.L1Bytes/1024)
	}
	if c.Ways > 1 {
		s += fmt.Sprintf("-%dway", c.Ways)
	}
	if c.Slots > 0 && c.Slots != 8 {
		s += fmt.Sprintf("-slots%d", c.Slots)
	}
	return s
}

// Config is one simulated system configuration.
type Config struct {
	// Layout is the binary layout.
	Layout Layout
	// Prefetcher selects the prefetch engine.
	Prefetcher PrefetcherKind
	// Degree is N for NL_N / CGP_N (default 4).
	Degree int
	// RunAheadM is M for run-ahead NL (default 4).
	RunAheadM int
	// CGHC sizes the history cache for PrefCGP (default 2K+32K).
	CGHC CGHCConfig
	// PerfectICache makes every I-access single-cycle.
	PerfectICache bool
	// DemandPriority enables the §3.3 ablation: demand misses bypass
	// queued prefetches.
	DemandPriority bool
	// PrefetchIntoL2Only enables the §3.3 ablation: prefetches fill
	// only L2, not L1I.
	PrefetchIntoL2Only bool
	// CPU overrides the Table-1 machine when non-nil.
	CPU *cpu.Config
	// Sampling, when enabled, runs this cell as a sampled simulation:
	// most of the event stream is skipped or functionally warmed and
	// only periodic windows are simulated in detail, yielding estimated
	// cycle/miss totals (typed units.EstCycles, ±CI) at a fraction of
	// the cost. The zero value means full detailed simulation.
	Sampling sample.Config
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Degree == 0 {
		c.Degree = 4
	}
	if c.RunAheadM == 0 {
		c.RunAheadM = 4
	}
	if (c.Prefetcher == PrefCGP || c.Prefetcher == PrefSoftwareCGP) && c.CGHC == (CGHCConfig{}) {
		c.CGHC = DefaultCGHC()
	}
	c.Sampling = c.Sampling.WithDefaults()
	return c
}

// Label names the configuration the way the paper's figures do:
// "O5", "O5+OM", "O5+CGP_4", "O5+OM+NL_2", "perf-Icache", ...
func (c Config) Label() string {
	c = c.withDefaults()
	if c.PerfectICache {
		return "perf-Icache"
	}
	label := c.Layout.String()
	switch c.Prefetcher {
	case PrefNL:
		label += fmt.Sprintf("+NL_%d", c.Degree)
	case PrefRunAheadNL:
		label += fmt.Sprintf("+RANL_%d", c.Degree)
	case PrefCGP:
		label += fmt.Sprintf("+CGP_%d", c.Degree)
	case PrefSoftwareCGP:
		label += fmt.Sprintf("+SWCGP_%d", c.Degree)
	}
	if c.DemandPriority {
		label += "+prio"
	}
	if c.PrefetchIntoL2Only {
		label += "+l2only"
	}
	return label
}

// fingerprint serializes every field that can influence a simulation,
// for use as a cache key. Label() is for display only: configs that
// differ in non-Label fields (RunAheadM, CGHC geometry, a CPU
// override) share a label but must not share a cached result. It is a
// deterministic sink: walltaint proves no wall-clock-derived value is
// folded into a fingerprint, so cache keys and checkpoint identities
// stay replay-stable.
//
//cgplint:detsink
func (c Config) fingerprint() string {
	c = c.withDefaults()
	cpuDesc := "default"
	if c.CPU != nil {
		cpuDesc = fmt.Sprintf("%+v", *c.CPU)
	}
	fp := fmt.Sprintf("l%d p%d n%d m%d cghc{%d %d %t %d %d} perf%t prio%t l2o%t cpu{%s}",
		c.Layout, c.Prefetcher, c.Degree, c.RunAheadM,
		c.CGHC.L1Bytes, c.CGHC.L2Bytes, c.CGHC.Infinite, c.CGHC.Ways, c.CGHC.Slots,
		c.PerfectICache, c.DemandPriority, c.PrefetchIntoL2Only, cpuDesc)
	// The sampling suffix appears only when sampling is on, so every
	// full-detail fingerprint — and the checkpoint key derived from it —
	// is byte-identical to what pre-sampling campaigns wrote.
	if c.Sampling.Enabled() {
		fp += " smp{" + c.Sampling.String() + "}"
	}
	return fp
}

// newCPU builds the machine the config describes: the CPU model (the
// Table-1 machine unless CPU overrides it) with its prefetch engine
// attached, ready for a sampling plan when the config is sampled. The
// second result is the CGP core when the prefetcher is CGP, for Figure
// 9's portion split. The software-CGP variant prefetches from sw, its
// profiled call-sequence table bound to one image's addresses; a nil
// sw leaves it without prefetching. Every cell the runner simulates is
// built here.
func (c Config) newCPU(sw *core.Software) (*cpu.CPU, *core.CGP) {
	c = c.withDefaults()
	mc := cpu.DefaultConfig()
	if c.CPU != nil {
		mc = *c.CPU
	}
	mc.PerfectICache = c.PerfectICache
	mc.DemandPriority = c.DemandPriority
	mc.PrefetchIntoL2Only = c.PrefetchIntoL2Only
	var pf prefetch.Prefetcher = prefetch.None{}
	var gp *core.CGP
	switch {
	case c.PerfectICache:
	case c.Prefetcher == PrefNL:
		pf = prefetch.NewNL(c.Degree)
	case c.Prefetcher == PrefRunAheadNL:
		pf = prefetch.NewRunAheadNL(c.Degree, c.RunAheadM)
	case c.Prefetcher == PrefCGP:
		gp = core.New(core.Config{
			Lines:    c.Degree,
			L1Bytes:  c.CGHC.L1Bytes,
			L2Bytes:  c.CGHC.L2Bytes,
			Infinite: c.CGHC.Infinite,
			Ways:     c.CGHC.Ways,
			Slots:    c.CGHC.Slots,
		})
		pf = gp
	case c.Prefetcher == PrefSoftwareCGP && sw != nil:
		pf = sw
	}
	m := cpu.New(mc, pf)
	if c.Sampling.Enabled() {
		m.EnableSampling()
	}
	return m, gp
}

// DefaultCPUConfig exposes the Table-1 machine parameters.
func DefaultCPUConfig() cpu.Config { return cpu.DefaultConfig() }
