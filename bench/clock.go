package main

import (
	"time"

	"cgp/internal/units"
)

// The benchmark measures host time, so unlike the program it reads the
// wall clock. Every read, and every conversion of the program's own
// wall-domain values, lives in this file. The timed prefetcher hooks
// call now and since inside the simulator's per-event loop, which the
// allocation lint checks; neither allocates.

// now returns a monotonic clock reading.
//
//cgplint:ignore detrand benchmark timing; readings feed only the benchmark's own metrics, never a figure or simulated statistic
func now() time.Time { return time.Now() } //cgplint:ignore allocfree time.Now reads the vDSO clock into a value and does not allocate

// since returns the time elapsed since t.
func since(t time.Time) time.Duration { return now().Sub(t) } //cgplint:ignore allocfree Time.Sub is value arithmetic and does not allocate

// wallDur converts a duration the program's query tracer measured into
// a time.Duration, so it can be compared with the client's timings.
//
//cgplint:ignore cyclesafe benchmark metrics boundary; the value is reported as a host timing, never fed back into the program
func wallDur(v units.WallNanos) time.Duration { return time.Duration(v) }
