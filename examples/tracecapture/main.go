// Trace capture and replay: record a workload's fetch-event stream to a
// compact binary trace file, then replay it through the simulator —
// decoupling (expensive) query execution from (cheap) parameter sweeps,
// the way trace-driven simulators are used in practice.
//
//	go run ./examples/tracecapture [-trace /tmp/wisc.cgptrc]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"cgp/internal/cpu"
	"cgp/internal/prefetch"
	"cgp/internal/program"
	"cgp/internal/trace"
	"cgp/internal/workload"
)

func main() {
	path := flag.String("trace", "/tmp/wisc-prof.cgptrc", "trace file path")
	flag.Parse()

	// Capture: run wisc-prof once on the O5 image into a recorder, which
	// counts the stream's stats as it encodes, and save the sealed
	// recording as a trace file.
	w := workload.WiscProf(workload.DBOptions{WiscN: 1000})
	img := program.LayoutO5(w.NewRegistry())

	r := trace.NewRecorder()
	if err := w.Run(img, r); err != nil {
		log.Fatal(err)
	}
	captured, err := r.Finish()
	if err != nil {
		log.Fatal(err)
	}
	st := captured.Stats
	f, err := os.Create(*path)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := captured.WriteTo(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(*path)
	fmt.Printf("captured %d events (%d instructions) to %s (%d bytes, %.2f bytes/instr)\n",
		st.Events, st.Instructions, *path, info.Size(),
		float64(info.Size())/float64(st.Instructions))

	// Replay: load the file once into a sealed recording, then sweep
	// prefetchers over it without re-executing a single query.
	rf, err := os.Open(*path)
	if err != nil {
		log.Fatal(err)
	}
	rec, err := trace.Load(rf)
	rf.Close()
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range []struct {
		name string
		pf   prefetch.Prefetcher
	}{
		{"none", prefetch.None{}},
		{"nl_4", prefetch.NewNL(4)},
		{"ranl_4", prefetch.NewRunAheadNL(4, 4)},
	} {
		c := cpu.New(cpu.DefaultConfig(), r.pf)
		if err := rec.Replay(c); err != nil {
			log.Fatal(err)
		}
		s := c.Finish()
		fmt.Printf("replay %-8s cycles=%-9d I-misses=%d\n", r.name, s.Cycles, s.ICacheMisses)
	}
}
