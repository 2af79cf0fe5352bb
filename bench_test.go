package cgp

import (
	"testing"

	"cgp/internal/cache"
	"cgp/internal/core"
	"cgp/internal/cpu"
	"cgp/internal/isa"
	"cgp/internal/prefetch"
	"cgp/internal/program"
	"cgp/internal/trace"
	"cgp/internal/units"
	"cgp/internal/workload"
)

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// instructions per wall-second for the full DB pipeline under CGP.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w := workload.WiscLarge2(DBOptions{
		WiscN: 1500, Quantum: 7, Seed: 42, BufferFrames: 8192,
		TPCH: workload.TPCHScale{Suppliers: 16, Customers: 80, Parts: 120, Orders: 320, MaxLines: 5},
	})
	reg := w.NewRegistry()
	img := program.LayoutO5(reg)
	b.ResetTimer()
	var instrs units.Instrs
	for i := 0; i < b.N; i++ {
		c, _ := (Config{Layout: LayoutO5, Prefetcher: PrefCGP, Degree: 4}).NewCPU(nil)
		if err := w.Run(img, c); err != nil {
			b.Fatal(err)
		}
		instrs = c.Finish().Instructions
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// ---- microbenchmarks of the hot structures ----

func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New[struct{}](cache.Config{Name: "b", SizeBytes: 32 * 1024, Assoc: 2, LineBytes: 32})
	for i := 0; i < 2048; i++ {
		c.Insert(cache.Line(i), struct{}{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(cache.Line(i & 4095))
	}
}

func BenchmarkCGHCAccess(b *testing.B) {
	p := core.New(core.Config{Lines: 4, L1Bytes: 2048, L2Bytes: 32 * 1024})
	sink := func(prefetch.Request) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		caller := isa.Addr(0x400000 + (i&127)*0x200)
		callee := isa.Addr(0x500000 + (i&63)*0x200)
		p.OnCall(callee, caller, sink)
		p.OnReturn(caller, callee, sink)
	}
}

func BenchmarkTracerSynthesis(b *testing.B) {
	reg := program.NewRegistry()
	main := reg.Register("main", 2000)
	leaf := reg.Register("leaf", 400)
	img := program.LayoutO5(reg)
	tr := trace.NewTracer(img, trace.NewBatcher(trace.Discard), 1)
	tr.Enter(main)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Enter(leaf)
		tr.Work(40)
		tr.Exit()
	}
}

func BenchmarkCPUConsume(b *testing.B) {
	c := cpu.New(cpu.DefaultConfig(), prefetch.NewNL(4))
	ev := []trace.Event{{Kind: trace.KindRun, Addr: 0x400000, N: 32}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev[0].Addr = 0x400000 + isa.Addr((i&1023)*32)
		c.EventBatch(ev)
	}
}
