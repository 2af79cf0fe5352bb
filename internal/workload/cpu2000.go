package workload

import (
	"fmt"
	"math/rand"

	"cgp/internal/isa"
	"cgp/internal/program"
	"cgp/internal/trace"
)

// CPU2000Spec parameterizes one synthetic SPEC CPU2000 stand-in. The
// knobs were chosen so each program reproduces the published I-cache
// character the paper relies on for Figure 10: tiny loopy footprints
// for gzip/parser/gap/bzip2/twolf (≈0% I-miss), a large multi-phase
// footprint for gcc (≈0.5% I-miss) and a mid-size one for crafty
// (≈0.3% I-miss).
type CPU2000Spec struct {
	Name string
	// Funcs is the total number of functions in the program.
	Funcs int
	// MinSize/MaxSize bound function body sizes in instructions.
	MinSize, MaxSize int
	// Phases is how many distinct working sets execution moves through.
	Phases int
	// PhaseFuncs is the active-function window per phase.
	PhaseFuncs int
	// CallsPerPhase is the number of top-level call groups per phase.
	CallsPerPhase int
	// LoopWork is straight-loop instructions between call groups
	// (loops dominate SPEC integer codes).
	LoopWork int
	// CallWork is per-callee local work.
	CallWork int
	// NestProb is the probability a callee makes a further nested call.
	NestProb float64
	// DataStride spaces the synthetic data stream (streaming codes
	// touch new lines; pointer-chasing codes revisit).
	DataStride int
}

// CPU2000Specs returns the seven benchmarks of Figure 10 in paper
// order: gzip, gcc, crafty, parser, gap, bzip2, twolf.
func CPU2000Specs() []CPU2000Spec {
	return []CPU2000Spec{
		{Name: "gzip", Funcs: 24, MinSize: 60, MaxSize: 300, Phases: 2, PhaseFuncs: 6,
			CallsPerPhase: 12000, LoopWork: 300, CallWork: 60, NestProb: 0.2, DataStride: 64},
		{Name: "gcc", Funcs: 420, MinSize: 120, MaxSize: 700, Phases: 24, PhaseFuncs: 14,
			CallsPerPhase: 900, LoopWork: 680, CallWork: 55, NestProb: 0.5, DataStride: 96},
		{Name: "crafty", Funcs: 110, MinSize: 120, MaxSize: 600, Phases: 10, PhaseFuncs: 10,
			CallsPerPhase: 2200, LoopWork: 560, CallWork: 60, NestProb: 0.4, DataStride: 48},
		{Name: "parser", Funcs: 64, MinSize: 60, MaxSize: 320, Phases: 4, PhaseFuncs: 12,
			CallsPerPhase: 8000, LoopWork: 220, CallWork: 50, NestProb: 0.3, DataStride: 40},
		{Name: "gap", Funcs: 80, MinSize: 80, MaxSize: 360, Phases: 4, PhaseFuncs: 14,
			CallsPerPhase: 7000, LoopWork: 200, CallWork: 55, NestProb: 0.3, DataStride: 56},
		{Name: "bzip2", Funcs: 20, MinSize: 80, MaxSize: 400, Phases: 2, PhaseFuncs: 5,
			CallsPerPhase: 12000, LoopWork: 340, CallWork: 70, NestProb: 0.15, DataStride: 64},
		{Name: "twolf", Funcs: 56, MinSize: 70, MaxSize: 340, Phases: 5, PhaseFuncs: 12,
			CallsPerPhase: 7000, LoopWork: 180, CallWork: 55, NestProb: 0.35, DataStride: 44},
	}
}

// CPU2000Spec lookup by name.
func CPU2000ByName(name string) (CPU2000Spec, error) {
	for _, s := range CPU2000Specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return CPU2000Spec{}, fmt.Errorf("workload: no CPU2000 benchmark %q", name)
}

// NewCPU2000 builds the workload for one spec.
func NewCPU2000(spec CPU2000Spec, seed int64) *Workload {
	if seed == 0 {
		seed = 1
	}
	return &Workload{
		Name:   spec.Name,
		Family: "cpu2000",
		NewRegistry: func() *program.Registry {
			reg := program.NewRegistry()
			rng := rand.New(rand.NewSource(seed))
			reg.Register(spec.Name+"_main", 400)
			for i := 0; i < spec.Funcs; i++ {
				size := spec.MinSize + rng.Intn(spec.MaxSize-spec.MinSize+1)
				fn := reg.Register(fmt.Sprintf("%s_fn_%03d", spec.Name, i), size)
				// SPEC codes are loopier than DB code: fewer taken
				// branches that leave the straight path.
				reg.SetBranchProfile(fn, 0.22, 16)
			}
			return reg
		},
		Run: func(img *program.Image, out trace.Consumer) error {
			return runCPU2000(spec, seed, img, out)
		},
	}
}

// CPU2000Workloads builds all seven.
func CPU2000Workloads(seed int64) []*Workload {
	specs := CPU2000Specs()
	out := make([]*Workload, len(specs))
	for i, s := range specs {
		out[i] = NewCPU2000(s, seed)
	}
	return out
}

func runCPU2000(spec CPU2000Spec, seed int64, img *program.Image, out trace.Consumer) error {
	reg := img.Registry()
	mainFn, ok := reg.Lookup(spec.Name + "_main")
	if !ok {
		return fmt.Errorf("workload %s: image built from wrong registry", spec.Name)
	}
	fns := make([]program.FuncID, spec.Funcs)
	for i := range fns {
		id, ok := reg.Lookup(fmt.Sprintf("%s_fn_%03d", spec.Name, i))
		if !ok {
			return fmt.Errorf("workload %s: missing fn %d in registry", spec.Name, i)
		}
		fns[i] = id
	}
	b := trace.NewBatcher(out)
	tr := trace.NewTracer(img, b, seed*31+7)
	rng := rand.New(rand.NewSource(seed * 131))
	dataAddr := isa.DataBase

	tr.Enter(mainFn)
	for p := 0; p < spec.Phases; p++ {
		// Each phase works over a sliding window of the function set.
		base := 0
		if spec.Funcs > spec.PhaseFuncs && spec.Phases > 1 {
			base = (p * (spec.Funcs - spec.PhaseFuncs)) / (spec.Phases - 1)
		}
		for c := 0; c < spec.CallsPerPhase; c++ {
			// Hot-biased pick within the window: a few functions take
			// most calls, as profile data shows for SPEC.
			off := int(rng.ExpFloat64() * float64(spec.PhaseFuncs) / 4)
			if off >= spec.PhaseFuncs {
				off = spec.PhaseFuncs - 1
			}
			fn := fns[(base+off)%spec.Funcs]
			tr.Enter(fn)
			tr.Work(spec.CallWork)
			if rng.Float64() < spec.NestProb {
				off2 := int(rng.ExpFloat64() * float64(spec.PhaseFuncs) / 4)
				if off2 >= spec.PhaseFuncs {
					off2 = spec.PhaseFuncs - 1
				}
				tr.Enter(fns[(base+off2)%spec.Funcs])
				tr.Work(spec.CallWork / 2)
				tr.Exit()
			}
			tr.Exit()
			// Main-loop work plus a streaming data touch.
			tr.Work(spec.LoopWork)
			tr.Data(dataAddr, 16, c%3 == 0)
			dataAddr += isa.Addr(spec.DataStride)
			if dataAddr > isa.DataBase+1<<24 {
				dataAddr = isa.DataBase
			}
		}
	}
	tr.Exit()
	b.Flush()
	return nil
}
