// Command cgptrace records and inspects binary trace files — the
// capture side of trace-driven simulation.
//
//	cgptrace record -workload wisc-prof -o wisc.cgptrc
//	cgptrace info wisc.cgptrc
//	cgptrace dump -n 40 wisc.cgptrc
//
// info and dump load the file whole into a sealed in-memory recording
// (trace.Load) and work on that; at ~5.4 bytes per event a capture
// fits in memory. Probe-level captures (live traffic sealed by cgpserve
// -capture) are detected automatically and shown as probe events.
//
// A trace file is simulated by cgpsim -trace FILE, which runs it
// through the library's runner the way a figure cell runs, with all of
// cgpsim's flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"cgp/internal/program"
	"cgp/internal/trace"
	"cgp/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "info":
		err = info(os.Args[2:])
	case "dump":
		err = dump(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgptrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: cgptrace {record|info|dump} [flags] [file]")
	os.Exit(2)
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	name := fs.String("workload", "wisc-prof", "workload to record")
	layout := fs.String("layout", "o5", "binary layout: o5 (om requires a profile run and is produced by the library API)")
	out := fs.String("o", "trace.cgptrc", "output file")
	wiscN := fs.Int("wisc-n", 1000, "Wisconsin cardinality")
	seed := fs.Int64("seed", 42, "seed")
	fs.Parse(args)
	if *layout != "o5" {
		return fmt.Errorf("record supports -layout o5 (use the library for OM traces)")
	}
	w, err := workload.ByName(*name, *wiscN, *seed)
	if err != nil {
		return err
	}
	img := program.LayoutO5(w.NewRegistry())
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	r := trace.NewRecorder()
	if err := w.Run(img, r); err != nil {
		return err
	}
	rec, err := r.Finish()
	if err != nil {
		return err
	}
	if _, err := rec.WriteTo(f); err != nil {
		return err
	}
	fmt.Printf("recorded %s: %d events, %d instructions -> %s\n", w.Name, rec.Stats.Events, rec.Stats.Instructions, *out)
	return nil
}

// load reads a trace file whole into a sealed recording.
func load(path string) (*trace.Recording, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Load(f)
}

func info(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("info needs a trace file")
	}
	rec, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	st := rec.Stats
	fmt.Printf("events          %d\n", st.Events)
	fmt.Printf("encoded         %d bytes (%.2f B/event)\n", rec.Bytes(), float64(rec.Bytes())/float64(max(st.Events, 1)))
	fmt.Printf("instructions    %d\n", st.Instructions)
	fmt.Printf("calls/returns   %d / %d\n", st.Calls, st.Returns)
	fmt.Printf("branches        %d (taken %d)\n", st.Branches, st.TakenBrs)
	fmt.Printf("loops           %d\n", st.Loops)
	fmt.Printf("data refs       %d (%d bytes)\n", st.DataRefs, st.DataBytes)
	fmt.Printf("ctx switches    %d\n", st.Switches)
	if st.QueryTags > 0 {
		fmt.Printf("query tags      %d (trace-tagged queries; cgpsim -trace FILE -by-query joins attribution)\n", st.QueryTags)
	}
	if st.ProbeOps > 0 {
		fmt.Printf("probe ops       %d (probe-level capture; cgpsim -trace FILE synthesizes addresses)\n", st.ProbeOps)
		return nil
	}
	fmt.Printf("instr/call      %.1f\n", st.InstructionsPerCall())
	fmt.Printf("events/kinst    %.1f\n", st.EventsPerKInstr())
	return nil
}

// errDumped stops dump's walk once it has printed its events.
var errDumped = errors.New("dumped")

func dump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	n := fs.Int("n", 20, "events to print")
	skip := fs.Int("skip", 0, "events to skip first")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("dump needs a trace file")
	}
	rec, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	i := 0
	err = rec.ReplayBatch(func(evs []trace.Event) error {
		for _, ev := range evs {
			if i == *skip+*n {
				return errDumped
			}
			if i >= *skip {
				printEvent(ev)
			}
			i++
		}
		return nil
	})
	if err == errDumped {
		return nil
	}
	return err
}

// printEvent prints one event as a dump line.
func printEvent(ev trace.Event) {
	switch ev.Kind {
	case trace.KindRun:
		fmt.Printf("%-6s %#x +%d\n", ev.Kind, ev.Addr, ev.N)
	case trace.KindLoop:
		fmt.Printf("%-6s %#x body=%d iters=%d\n", ev.Kind, ev.Addr, ev.N, ev.Iters)
	case trace.KindBranch:
		fmt.Printf("%-6s %#x taken=%v -> %#x\n", ev.Kind, ev.Addr, ev.Taken, ev.Target)
	case trace.KindCall:
		fmt.Printf("%-6s %#x -> fn%d@%#x (from fn%d)\n", ev.Kind, ev.Addr, ev.Fn, ev.Target, ev.Caller)
	case trace.KindReturn:
		fmt.Printf("%-6s fn%d -> %#x\n", ev.Kind, ev.Fn, ev.Target)
	case trace.KindData, trace.KindProbeData:
		rw := "r"
		if ev.Taken {
			rw = "w"
		}
		fmt.Printf("%-6s %#x %dB %s\n", ev.Kind, ev.Addr, ev.N, rw)
	case trace.KindSwitch:
		fmt.Printf("%-6s thread %d\n", ev.Kind, ev.N)
	case trace.KindProbeEnter:
		fmt.Printf("%-6s fn%d\n", ev.Kind, ev.Fn)
	case trace.KindProbeExit:
		fmt.Printf("%-6s\n", ev.Kind)
	case trace.KindProbeWork:
		fmt.Printf("%-6s +%d\n", ev.Kind, ev.N)
	case trace.KindQueryTag:
		fmt.Printf("%-6s %016x\n", ev.Kind, uint64(ev.Addr))
	}
}
