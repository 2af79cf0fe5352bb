package workload

import (
	"fmt"
	"strings"

	"cgp/internal/db"
	"cgp/internal/program"
	"cgp/internal/trace"
)

// Workload is something the simulator can execute: it owns a function
// registry (the "binary") and can replay its execution against any
// image of that registry, emitting trace events into a consumer.
type Workload struct {
	// Name identifies the workload ("wisc-large-2", "gcc", ...).
	Name string
	// Family is "db" for the database workloads or "cpu2000" for the
	// SPEC stand-ins; the experiment harness picks profile sources by
	// family.
	Family string
	// NewRegistry builds the function registry. Deterministic: every
	// call returns an identical registry, so profiles collected on one
	// instance apply to images laid out for another.
	NewRegistry func() *program.Registry
	// Run executes the workload against img, emitting events into out.
	Run func(img *program.Image, out trace.Consumer) error
	// Recording, when set, is the workload's whole stream, already
	// sealed (see Recorded): its addresses are fixed, so it runs on the
	// O5 layout only, and the runner replays it instead of recording
	// Run's output.
	Recording *trace.Recording
}

// DBOptions scales the database workloads.
type DBOptions struct {
	// WiscN is the big-relation cardinality (the paper's wisc-large
	// databases use 10,000; wisc-prof uses 1,000).
	WiscN int
	// TPCH sizes the TPC-H tables for wisc+tpch.
	TPCH TPCHScale
	// Quantum is the scheduler slice in root-level tuples.
	Quantum int
	// Seed drives data generation and trace synthesis.
	Seed int64
	// BufferFrames sizes the buffer pool.
	BufferFrames int
}

// withDefaults fills zero fields.
func (o DBOptions) withDefaults() DBOptions {
	if o.WiscN == 0 {
		o.WiscN = 10000
	}
	if o.TPCH == (TPCHScale{}) {
		o.TPCH = DefaultTPCHScale()
	}
	if o.Quantum == 0 {
		o.Quantum = 7
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.BufferFrames == 0 {
		o.BufferFrames = 8192
	}
	return o
}

// dbWorkload assembles a Workload that builds a fresh engine, loads
// data untraced, then runs the query set concurrently under tracing.
func dbWorkload(name string, opts DBOptions, withTPCH bool, wiscQueries []int) *Workload {
	opts = opts.withDefaults()
	return &Workload{
		Name:   name,
		Family: "db",
		NewRegistry: func() *program.Registry {
			reg, _ := db.BuildRegistry()
			return reg
		},
		Run: func(img *program.Image, out trace.Consumer) error {
			e := db.NewEngine(db.Options{BufferFrames: opts.BufferFrames})
			if err := (WisconsinDB{N: opts.WiscN}).Load(e, opts.Seed); err != nil {
				return fmt.Errorf("workload %s: load wisconsin: %w", name, err)
			}
			queries := WisconsinQueries(opts.WiscN, opts.Seed, wiscQueries)
			if withTPCH {
				if err := LoadTPCH(e, opts.TPCH, opts.Seed+100); err != nil {
					return fmt.Errorf("workload %s: load tpch: %w", name, err)
				}
				queries = append(queries, TPCHQueries()...)
			}
			_, err := e.RunConcurrent(queries, img, out, opts.Quantum, opts.Seed)
			return err
		},
	}
}

// WiscProf is the profiling workload: queries 1, 5 and 9 on a small
// (paper: 2,100-tuple) database.
func WiscProf(opts DBOptions) *Workload {
	opts = opts.withDefaults()
	opts.WiscN = 1000
	return dbWorkload("wisc-prof", opts, false, []int{1, 5, 9})
}

// WiscLarge1 runs the wisc-prof queries on the full-size database.
func WiscLarge1(opts DBOptions) *Workload {
	return dbWorkload("wisc-large-1", opts, false, []int{1, 5, 9})
}

// WiscLarge2 runs all eight Wisconsin queries on the full database.
func WiscLarge2(opts DBOptions) *Workload {
	return WiscLarge2Quantum(opts, opts.withDefaults().Quantum)
}

// WiscLarge2Quantum is wisc-large-2 with the scheduler quantum set to
// q. At opts' own (defaulted) quantum it is WiscLarge2(opts). Any
// other quantum makes a distinct workload named "wisc-large-2/q<q>",
// so every key derived from a workload's name carries its quantum.
func WiscLarge2Quantum(opts DBOptions, q int) *Workload {
	name := "wisc-large-2"
	if q != opts.withDefaults().Quantum {
		name = fmt.Sprintf("wisc-large-2/q%d", q)
	}
	opts.Quantum = q
	return dbWorkload(name, opts, false, []int{1, 2, 3, 4, 5, 6, 7, 9})
}

// WiscTPCH runs the eight Wisconsin queries and the five TPC-H queries
// concurrently (the paper's largest workload).
func WiscTPCH(opts DBOptions) *Workload {
	return dbWorkload("wisc+tpch", opts, true, []int{1, 2, 3, 4, 5, 6, 7, 9})
}

// DBWorkloads returns the paper's four database workloads in figure
// order.
func DBWorkloads(opts DBOptions) []*Workload {
	return []*Workload{WiscProf(opts), WiscLarge1(opts), WiscLarge2(opts), WiscTPCH(opts)}
}

// ByName returns the named database workload (at Wisconsin cardinality
// wiscN) or CPU2000 stand-in, both seeded by seed.
func ByName(name string, wiscN int, seed int64) (*Workload, error) {
	var names []string
	for _, w := range DBWorkloads(DBOptions{WiscN: wiscN, Seed: seed}) {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	for _, s := range CPU2000Specs() {
		if s.Name == name {
			return NewCPU2000(s, seed), nil
		}
		names = append(names, s.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (try %s)", name, strings.Join(names, ", "))
}
